#include "util/flags.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dragon::util {

namespace {

/// Strict base-10 integer parse: the whole string must be consumed and the
/// value must fit an int64 (no silent atoi-style truncation).
std::optional<std::int64_t> parse_i64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

/// Strict integer-list parse: comma-separated parse_i64 entries in
/// [min, max], at least one and none empty.
std::optional<std::vector<std::int64_t>> parse_i64_list(const std::string& s,
                                                        std::int64_t min,
                                                        std::int64_t max) {
  std::vector<std::int64_t> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = s.find(',', start);
    const auto v = parse_i64(s.substr(start, comma - start));
    if (!v || *v < min || *v > max) return std::nullopt;
    out.push_back(*v);
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

/// Strict duration parse: a non-negative decimal number immediately
/// followed by a unit suffix (`ms`, `s`, `m`, `h`) consuming the whole
/// string.  Returns the value in seconds, which must be finite.  A bare
/// number is rejected on purpose: "--hold-time 90" is ambiguous in a
/// config that mixes second- and millisecond-scale knobs.
std::optional<double> parse_duration_seconds(const std::string& s) {
  if (s.empty() || s.front() == '-' || s.front() == '+') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  // !(v >= 0) also rejects a parsed NaN, which would otherwise slip
  // through the range check (NaN comparisons are all false).
  if (errno == ERANGE || end == s.c_str() || !(v >= 0.0)) return std::nullopt;
  // `inf` parses, and a huge value overflows once scaled; without a
  // finite upper bound either would pass the range check.
  const auto finite = [](double seconds) -> std::optional<double> {
    if (!std::isfinite(seconds)) return std::nullopt;
    return seconds;
  };
  const std::string_view unit(end, s.c_str() + s.size() - end);
  if (unit == "ms") return finite(v * 1e-3);
  if (unit == "s") return finite(v);
  if (unit == "m") return finite(v * 60.0);
  if (unit == "h") return finite(v * 3600.0);
  return std::nullopt;
}

/// Renders seconds with the largest unit that keeps the number exact-ish
/// (used for defaults, so `--help` and print_config echo parseable values).
std::string format_duration(double seconds) {
  char buf[48];
  if (seconds >= 3600.0 && seconds == 3600.0 * static_cast<std::int64_t>(seconds / 3600.0)) {
    std::snprintf(buf, sizeof(buf), "%lldh",
                  static_cast<long long>(seconds / 3600.0));
  } else if (seconds >= 60.0 &&
             seconds == 60.0 * static_cast<std::int64_t>(seconds / 60.0)) {
    std::snprintf(buf, sizeof(buf), "%lldm",
                  static_cast<long long>(seconds / 60.0));
  } else if (seconds < 1.0 && seconds > 0.0) {
    std::snprintf(buf, sizeof(buf), "%gms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%gs", seconds);
  }
  return buf;
}

}  // namespace

void Flags::define(std::string name, std::string default_value,
                   std::string help) {
  Entry e;
  e.value = default_value;
  e.default_value = std::move(default_value);
  e.help = std::move(help);
  entries_.insert_or_assign(std::move(name), std::move(e));
}

void Flags::define_int(std::string name, std::int64_t default_value,
                       std::string help, std::int64_t min, std::int64_t max) {
  Entry e;
  e.value = std::to_string(default_value);
  e.default_value = e.value;
  e.help = std::move(help);
  e.is_int = true;
  e.min = min;
  e.max = max;
  entries_.insert_or_assign(std::move(name), std::move(e));
}

void Flags::define_int_list(std::string name,
                            const std::vector<std::int64_t>& default_value,
                            std::string help, std::int64_t min,
                            std::int64_t max) {
  Entry e;
  for (const std::int64_t v : default_value) {
    if (!e.value.empty()) e.value += ',';
    e.value += std::to_string(v);
  }
  e.default_value = e.value;
  e.help = std::move(help);
  e.is_int_list = true;
  e.min = min;
  e.max = max;
  entries_.insert_or_assign(std::move(name), std::move(e));
}

void Flags::define_duration(std::string name, double default_seconds,
                            std::string help, double min_seconds,
                            double max_seconds) {
  Entry e;
  e.value = format_duration(default_seconds);
  e.default_value = e.value;
  e.help = std::move(help);
  e.is_duration = true;
  e.min_seconds = min_seconds;
  e.max_seconds = max_seconds;
  entries_.insert_or_assign(std::move(name), std::move(e));
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [flags]\n", argv[0]);
      for (const auto& [name, e] : entries_) {
        std::printf("  --%-24s %s (default: %s)\n", name.c_str(),
                    e.help.c_str(), e.default_value.c_str());
      }
      return false;
    }
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      std::fprintf(stderr, "unexpected argument: %s\n", std::string(arg).c_str());
      return false;
    }
    arg.remove_prefix(2);
    std::string name;
    std::string value;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else if (arg.substr(0, 3) == "no-" &&
               entries_.find(arg.substr(3)) != entries_.end()) {
      name = std::string(arg.substr(3));
      value = "false";
    } else {
      name = std::string(arg);
      // A declared boolean-looking flag with no value means "true"; otherwise
      // consume the next argv entry as the value.
      auto it = entries_.find(name);
      const bool next_is_value =
          i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--";
      if (it != entries_.end() &&
          (it->second.default_value == "true" ||
           it->second.default_value == "false") &&
          !next_is_value) {
        value = "true";
      } else if (next_is_value) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        return false;
      }
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      return false;
    }
    if (it->second.is_int) {
      const auto parsed = parse_i64(value);
      if (!parsed || *parsed < it->second.min || *parsed > it->second.max) {
        std::fprintf(stderr,
                     "flag --%s: invalid value '%s' (expected integer in "
                     "[%lld, %lld])\n",
                     name.c_str(), value.c_str(),
                     static_cast<long long>(it->second.min),
                     static_cast<long long>(it->second.max));
        return false;
      }
    }
    if (it->second.is_int_list &&
        !parse_i64_list(value, it->second.min, it->second.max)) {
      std::fprintf(stderr,
                   "flag --%s: invalid value '%s' (expected comma-separated "
                   "integers in [%lld, %lld])\n",
                   name.c_str(), value.c_str(),
                   static_cast<long long>(it->second.min),
                   static_cast<long long>(it->second.max));
      return false;
    }
    if (it->second.is_duration) {
      const auto parsed = parse_duration_seconds(value);
      if (!parsed || *parsed < it->second.min_seconds ||
          *parsed > it->second.max_seconds) {
        std::fprintf(stderr,
                     "flag --%s: invalid duration '%s' (expected "
                     "<number><ms|s|m|h> in [%s, %s])\n",
                     name.c_str(), value.c_str(),
                     format_duration(it->second.min_seconds).c_str(),
                     format_duration(it->second.max_seconds).c_str());
        return false;
      }
    }
    it->second.value = value;
  }
  return true;
}

const Flags::Entry& Flags::entry(std::string_view name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::out_of_range("undeclared flag: " + std::string(name));
  }
  return it->second;
}

std::string Flags::str(std::string_view name) const { return entry(name).value; }

std::int64_t Flags::i64(std::string_view name) const {
  const Entry& e = entry(name);
  if (e.is_int) {
    // Parse-time validation guarantees this succeeds for int flags.
    return *parse_i64(e.value);
  }
  return std::strtoll(e.value.c_str(), nullptr, 10);
}

std::uint64_t Flags::u64(std::string_view name) const {
  const Entry& e = entry(name);
  if (e.is_int) {
    const std::int64_t v = *parse_i64(e.value);
    if (v < 0) {
      throw std::out_of_range("flag --" + std::string(name) +
                              ": negative value read as unsigned");
    }
    return static_cast<std::uint64_t>(v);
  }
  return std::strtoull(e.value.c_str(), nullptr, 10);
}

double Flags::f64(std::string_view name) const {
  const std::string& v = entry(name).value;
  const char* last = v.data() + v.size();
  double d = 0.0;
  const auto [end, ec] = std::from_chars(v.data(), last, d);
  if (ec != std::errc{} || end != last || !std::isfinite(d)) {
    throw std::invalid_argument("flag --" + std::string(name) + ": '" + v +
                                "' is not a finite number");
  }
  return d;
}

double Flags::seconds(std::string_view name) const {
  const Entry& e = entry(name);
  if (!e.is_duration) {
    throw std::out_of_range("flag --" + std::string(name) +
                            " was not declared with define_duration");
  }
  // Parse-time validation guarantees this succeeds for duration flags.
  return *parse_duration_seconds(e.value);
}

std::vector<std::int64_t> Flags::i64_list(std::string_view name) const {
  const Entry& e = entry(name);
  if (!e.is_int_list) {
    throw std::out_of_range("flag --" + std::string(name) +
                            " was not declared with define_int_list");
  }
  // Parse-time validation guarantees this succeeds for parsed values; a
  // default outside [min, max] throws std::bad_optional_access.
  return parse_i64_list(e.value, e.min, e.max).value();
}

bool Flags::boolean(std::string_view name) const {
  const std::string& v = entry(name).value;
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

void Flags::print_config(std::string_view program) const {
  std::printf("# %.*s", static_cast<int>(program.size()), program.data());
  for (const auto& [name, e] : entries_) {
    std::printf(" --%s=%s", name.c_str(), e.value.c_str());
  }
  std::printf("\n");
}

}  // namespace dragon::util
