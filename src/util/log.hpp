// Tiny leveled logger writing to stderr.  The protocol engine logs at debug
// level when tracing message exchanges; benches log progress at info level.
//
// Each line is prefixed with "[LEVEL <seconds>] " where <seconds> is a
// monotonic (steady-clock) timestamp with millisecond resolution counted
// from the first log call, and the whole line is written under the
// stderr stream lock so concurrent callers never interleave mid-line.
#pragma once

#include <cstdarg>
#include <string_view>

namespace dragon::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global minimum level; messages below it are dropped.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// printf-style logging at a level.
void logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace dragon::util

// Each macro tests the level before it evaluates its arguments, so a
// filtered line costs one level load and builds nothing.
#define DRAGON_LOG_AT(level, ...)                                  \
  do {                                                             \
    if ((level) >= ::dragon::util::log_level()) {                  \
      ::dragon::util::logf((level), __VA_ARGS__);                  \
    }                                                              \
  } while (false)
#define DRAGON_LOG_DEBUG(...) \
  DRAGON_LOG_AT(::dragon::util::LogLevel::kDebug, __VA_ARGS__)
#define DRAGON_LOG_INFO(...) \
  DRAGON_LOG_AT(::dragon::util::LogLevel::kInfo, __VA_ARGS__)
#define DRAGON_LOG_WARN(...) \
  DRAGON_LOG_AT(::dragon::util::LogLevel::kWarn, __VA_ARGS__)
#define DRAGON_LOG_ERROR(...) \
  DRAGON_LOG_AT(::dragon::util::LogLevel::kError, __VA_ARGS__)
