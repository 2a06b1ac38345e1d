// Layout probe compiled without NDEBUG, whatever the build type; see
// metrics_layout_ndebug.cpp.
#undef NDEBUG

#include <cstddef>

#include "obs/metrics.hpp"

namespace dragon::obs::layout_probe {

std::size_t registry_size_without_ndebug() { return sizeof(MetricsRegistry); }

}  // namespace dragon::obs::layout_probe
