// Minimal command-line flag parsing for the benchmark and example binaries.
//
// Supports `--name value`, `--name=value`, and boolean `--name` /
// `--no-name` forms.  Every bench harness declares its flags up front so
// `--help` can print them with defaults; unknown flags are a hard error to
// keep experiment invocations honest.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dragon::util {

/// A parsed command line: declared flags with defaults plus overrides.
class Flags {
 public:
  /// Declares a flag with a default value and a help line.
  void define(std::string name, std::string default_value, std::string help);

  /// Declares an integer flag validated at parse time: the value must be a
  /// complete base-10 integer inside [min, max], anything else (garbage,
  /// trailing junk, out-of-range — e.g. `--threads 0` against min 1) is a
  /// hard parse error naming the flag and the accepted range.
  void define_int(std::string name, std::int64_t default_value,
                  std::string help,
                  std::int64_t min = std::numeric_limits<std::int64_t>::min(),
                  std::int64_t max = std::numeric_limits<std::int64_t>::max());

  /// Declares a comma-separated integer-list flag validated at parse time
  /// like define_int: every entry must be a complete base-10 integer
  /// inside [min, max]; an empty list, an empty entry (a stray or doubled
  /// comma) or any bad entry is a hard parse error naming the flag and the
  /// accepted range.  Read the value with i64_list().
  void define_int_list(
      std::string name, const std::vector<std::int64_t>& default_value,
      std::string help,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max());

  /// Declares a duration flag validated at parse time.  Values are a
  /// non-negative decimal number with a mandatory unit suffix — `ms`, `s`,
  /// `m`, or `h` (e.g. `--hold-time 90s`, `--restart-window 2m`,
  /// `--mrai 500ms`) — normalised to seconds and checked against
  /// [min_seconds, max_seconds]; a bare number, unknown unit, or
  /// out-of-range value is a hard parse error naming the flag and range.
  /// `default_seconds` is rendered back with the most natural unit.
  /// Read the value with seconds().
  void define_duration(std::string name, double default_seconds,
                       std::string help, double min_seconds = 0.0,
                       double max_seconds =
                           std::numeric_limits<double>::infinity());

  /// Parses argv.  Returns false (after printing a message) on `--help` or
  /// on an unknown/malformed flag; the caller should exit.
  [[nodiscard]] bool parse(int argc, char** argv);

  [[nodiscard]] std::string str(std::string_view name) const;
  /// The value of a define_int flag; any other flag throws
  /// std::out_of_range, so an integer is read only where parse()
  /// validated it.  u64() also throws on a negative value.
  [[nodiscard]] std::int64_t i64(std::string_view name) const;
  [[nodiscard]] std::uint64_t u64(std::string_view name) const;
  /// Throws std::invalid_argument unless the whole value is one finite
  /// number.
  [[nodiscard]] double f64(std::string_view name) const;
  [[nodiscard]] bool boolean(std::string_view name) const;
  /// The value of a define_duration flag, in seconds.
  [[nodiscard]] double seconds(std::string_view name) const;
  /// The entries of a define_int_list flag, in order.
  [[nodiscard]] std::vector<std::int64_t> i64_list(
      std::string_view name) const;

  /// Prints `--name=value` lines for every flag (used to log experiment
  /// configurations into the bench output).
  void print_config(std::string_view program) const;

 private:
  struct Entry {
    std::string value;
    std::string default_value;
    std::string help;
    /// Integer and integer-list flags carry their accepted range (per
    /// entry for lists); string flags do not.
    bool is_int = false;
    bool is_int_list = false;
    std::int64_t min = 0;
    std::int64_t max = 0;
    /// Duration flags carry a range in seconds (value strings keep the
    /// unit suffix; seconds() normalises on read).
    bool is_duration = false;
    double min_seconds = 0.0;
    double max_seconds = 0.0;
  };
  const Entry& entry(std::string_view name) const;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace dragon::util
