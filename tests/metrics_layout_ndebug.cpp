// Layout probe compiled with NDEBUG defined, whatever the build type;
// metrics_layout_debug.cpp is its twin without it.  If a header's object
// layout depended on NDEBUG, the two would report different sizes, and a
// registry shared between such translation units would be read at the
// wrong offsets.
#ifndef NDEBUG
#define NDEBUG
#endif

#include <cstddef>

#include "obs/metrics.hpp"

namespace dragon::obs::layout_probe {

std::size_t registry_size_with_ndebug() { return sizeof(MetricsRegistry); }

}  // namespace dragon::obs::layout_probe
