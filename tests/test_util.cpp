#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <regex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "stats/ccdf.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace dragon {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  util::Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  util::Rng a2(42), c2(43);
  bool differs = false;
  for (int i = 0; i < 10; ++i) differs |= a2() != c2();
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInBounds) {
  util::Rng rng(1);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, RangeInclusive) {
  util::Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, WeightedRespectsWeights) {
  util::Rng rng(4);
  std::vector<double> weights{1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 4000; ++i) ++counts[rng.weighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, TruncatedGeometricBounds) {
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.truncated_geometric(0.5, 4);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 4u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  util::Rng rng(6);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expect(20);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(sorted, expect);
}

TEST(Rng, ForkIndependentButDeterministic) {
  util::Rng a(7);
  util::Rng fork1 = a.fork();
  util::Rng b(7);
  util::Rng fork2 = b.fork();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fork1(), fork2());
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  util::Flags flags;
  flags.define("nodes", "100", "node count");
  flags.define("rate", "0.5", "a rate");
  flags.define("verbose", "false", "chatty");
  flags.define("name", "x", "a name");

  const char* argv[] = {"prog",      "--nodes=200", "--rate", "0.75",
                        "--verbose", "--name=abc"};
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(flags.u64("nodes"), 200u);
  EXPECT_DOUBLE_EQ(flags.f64("rate"), 0.75);
  EXPECT_TRUE(flags.boolean("verbose"));
  EXPECT_EQ(flags.str("name"), "abc");
}

TEST(Flags, NoPrefixDisablesBoolean) {
  util::Flags flags;
  flags.define("dragon", "true", "");
  const char* argv[] = {"prog", "--no-dragon"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.boolean("dragon"));
}

TEST(Flags, RejectsUnknownFlag) {
  util::Flags flags;
  flags.define("nodes", "100", "");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Flags, DefaultsApplyWithoutArgs) {
  util::Flags flags;
  flags.define("seed", "7", "");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.i64("seed"), 7);
}

TEST(Flags, UndeclaredLookupThrows) {
  util::Flags flags;
  EXPECT_THROW((void)flags.str("nope"), std::out_of_range);
}

TEST(Flags, IntFlagAcceptsValuesInRange) {
  util::Flags flags;
  flags.define_int("threads", 4, "workers", 1, 4096);
  flags.define_int("offset", 0, "signed", -10, 10);
  const char* argv[] = {"prog", "--threads=8", "--offset", "-3"};
  ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
  EXPECT_EQ(flags.i64("threads"), 8);
  EXPECT_EQ(flags.u64("threads"), 8u);
  EXPECT_EQ(flags.i64("offset"), -3);
}

TEST(Flags, IntFlagRejectsOutOfRangeValues) {
  // `--threads 0` and negatives must be hard parse errors, not silent
  // clamps (the bench scheduler relies on this validation).
  for (const char* bad : {"--threads=0", "--threads=-2", "--threads=5000"}) {
    util::Flags flags;
    flags.define_int("threads", 4, "workers", 1, 4096);
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
  }
}

TEST(Flags, IntFlagRejectsMalformedValues) {
  for (const char* bad :
       {"--threads=abc", "--threads=4x", "--threads=", "--threads=1e3",
        "--threads=99999999999999999999"}) {
    util::Flags flags;
    flags.define_int("threads", 4, "workers", 1, 4096);
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
  }
}

TEST(Flags, IntListFlagAcceptsValuesInRange) {
  util::Flags flags;
  flags.define_int_list("threads-list", {1, 2, 4, 8}, "sweep", 1, 4096);
  const char* none[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(none)));
  // The default renders back in the form a user would type it.
  EXPECT_EQ(flags.str("threads-list"), "1,2,4,8");
  EXPECT_EQ(flags.i64_list("threads-list"),
            (std::vector<std::int64_t>{1, 2, 4, 8}));

  const char* argv[] = {"prog", "--threads-list", "4096,1,3"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(flags.i64_list("threads-list"),
            (std::vector<std::int64_t>{4096, 1, 3}));
}

TEST(Flags, IntListFlagRejectsMalformedValues) {
  // Every entry must be a whole integer in range: no separator other
  // than one comma between entries, no dropped zeros, no wrap-around.
  for (const char* bad :
       {"--l=1,x,2a,0", "--l=2a,zz", "--l=", "--l=,", "--l=1,", "--l=,1",
        "--l=1,,2", "--l=0", "--l=1,5000", "--l=-1", "--l=1;2", "--l=1 2",
        "--l=1.5", "--l=18446744073709551617"}) {
    util::Flags flags;
    flags.define_int_list("l", {1}, "sweep", 1, 4096);
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
    EXPECT_EQ(flags.i64_list("l"), (std::vector<std::int64_t>{1})) << bad;
  }
}

TEST(Flags, IntListLookupThrowsOnNonListFlag) {
  util::Flags flags;
  flags.define("threads-list", "1,2", "plain string flag");
  EXPECT_THROW((void)flags.i64_list("threads-list"), std::out_of_range);
}

TEST(Flags, NegativeIntFlagThrowsOnUnsignedLookup) {
  util::Flags flags;
  flags.define_int("only-tree", -1, "debug index", -1, 1000);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.i64("only-tree"), -1);
  EXPECT_THROW((void)flags.u64("only-tree"), std::out_of_range);
}

TEST(Flags, DoubleLookupThrowsOnMalformedValue) {
  for (const char* bad : {"abc", "0.1x", "", "nan"}) {
    util::Flags flags;
    flags.define("rate", "0.5", "a rate");
    const std::string arg = std::string("--rate=") + bad;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv))) << bad;
    EXPECT_THROW((void)flags.f64("rate"), std::invalid_argument) << bad;
  }
}

TEST(Flags, DurationFlagParsesEveryUnitToSeconds) {
  struct Case {
    const char* text;
    double want;
  };
  for (const Case c : {Case{"250ms", 0.25}, Case{"1.5s", 1.5},
                       Case{"90s", 90.0}, Case{"2m", 120.0},
                       Case{"0.5h", 1800.0}, Case{"1h", 3600.0}}) {
    util::Flags flags;
    flags.define_duration("hold-time", 90.0, "session hold timer");
    const std::string arg = std::string("--hold-time=") + c.text;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv))) << c.text;
    EXPECT_DOUBLE_EQ(flags.seconds("hold-time"), c.want) << c.text;
  }
}

TEST(Flags, DurationFlagDefaultsRenderWithUnitsAndReadBack) {
  util::Flags flags;
  flags.define_duration("horizon", 120.0, "window");
  flags.define_duration("hold-time", 90.0, "hold");
  flags.define_duration("blip", 0.25, "sub-second");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  // Defaults echo in parseable `<number><unit>` form (so print_config
  // lines can be pasted back) and seconds() normalises them.
  EXPECT_EQ(flags.str("horizon"), "2m");
  EXPECT_EQ(flags.str("hold-time"), "90s");
  EXPECT_EQ(flags.str("blip"), "250ms");
  EXPECT_DOUBLE_EQ(flags.seconds("horizon"), 120.0);
  EXPECT_DOUBLE_EQ(flags.seconds("hold-time"), 90.0);
  EXPECT_DOUBLE_EQ(flags.seconds("blip"), 0.25);
}

TEST(Flags, DurationFlagRejectsBareNumbersAndGarbage) {
  // A bare "90" is ambiguous (seconds? milliseconds?) and must be a hard
  // parse error, as must signs, unknown units, and non-numbers.
  for (const char* bad :
       {"--t=90", "--t=90x", "--t=s", "--t=", "--t=-5s", "--t=+5s",
        "--t=nanms", "--t=infs", "--t=5sec", "--t=1 h", "--t=ms"}) {
    util::Flags flags;
    flags.define_duration("t", 1.0, "", 0.001, 3600.0);
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
  }
}

TEST(Flags, DurationFlagEnforcesRange) {
  for (const char* bad : {"--t=1ms", "--t=0s", "--t=2h"}) {
    util::Flags flags;
    flags.define_duration("t", 1.0, "", 0.01, 3600.0);
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
  }
  util::Flags flags;
  flags.define_duration("t", 1.0, "", 0.01, 3600.0);
  const char* argv[] = {"prog", "--t=10ms"};  // exactly min: accepted
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_DOUBLE_EQ(flags.seconds("t"), 0.01);
}

TEST(Flags, DurationFlagRejectsNonFiniteWithoutUpperBound) {
  // With the default (infinite) upper bound only finiteness keeps `inf`
  // and overflowing values out.
  for (const char* bad : {"--t=infs", "--t=infinitym", "--t=1e308h",
                          "--t=nanms", "--t=1e999s"}) {
    util::Flags flags;
    flags.define_duration("t", 1.0, "");
    const char* argv[] = {"prog", bad};
    EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv))) << bad;
  }
}

TEST(Flags, SecondsLookupThrowsOnNonDurationFlag) {
  util::Flags flags;
  flags.define("mrai", "5", "plain string flag");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_THROW((void)flags.seconds("mrai"), std::out_of_range);
  EXPECT_THROW((void)flags.seconds("undeclared"), std::out_of_range);
}

TEST(Flags, SeededMutationsFailParseOrReadBackInRange) {
  // Mutates a valid value of each flag kind (a string read as f64, int,
  // bounded and unbounded duration, int list) and parses it.  Every
  // mutation must either fail parse() with a message naming the flag or
  // leave every typed getter returning an in-range value or throwing
  // std::invalid_argument; anything else (a crash, a wrapped or
  // non-finite value, another exception) fails the test.
  const auto declare = [](util::Flags& flags) {
    flags.define("rate", "0.5", "string read as f64");
    flags.define_int("count", 4, "int", -100, 1000);
    flags.define_duration("hold", 1.0, "bounded duration", 0.001, 3600.0);
    flags.define_duration("window", 1.0, "unbounded duration");
    flags.define_int_list("list", {1, 2}, "int list", 1, 4096);
  };
  const std::pair<const char*, const char*> valid[] = {
      {"rate", "0.75"}, {"count", "-42"},    {"hold", "1.5s"},
      {"window", "250ms"}, {"list", "1,16,4096"}};
  const std::string specials[] = {
      "nan", "inf", "-inf", "infinity", "1e999", "-1e999",
      "123456789012345678901234567890", ",", ",,", "0", "-0"};

  const auto mutate = [&](std::string v, util::Rng& rng) {
    const int steps = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < steps; ++i) {
      const std::size_t at = rng.below(v.size() + 1);
      switch (rng.below(6)) {
        case 0:  // byte flip
          if (!v.empty()) {
            v[at % v.size()] = static_cast<char>(1 + rng.below(255));
          }
          break;
        case 1:  // truncation
          v.resize(at);
          break;
        case 2:  // duplication of a tail
          v += v.substr(at);
          break;
        case 3: {  // a special token over a random run
          const std::size_t len = rng.below(v.size() - at + 1);
          v.replace(at, len, specials[rng.below(std::size(specials))]);
          break;
        }
        case 4: {  // a 30-digit number spliced in
          std::string digits;
          for (int d = 0; d < 30; ++d) {
            digits += static_cast<char>('0' + rng.below(10));
          }
          v.insert(at, digits);
          break;
        }
        default:  // a stray comma, or a doubled one
          v.insert(at, rng.chance(0.5) ? "," : ",,");
          break;
      }
    }
    return v;
  };

  std::size_t parsed = 0;
  std::size_t rejected = 0;
  ::testing::internal::CaptureStderr();
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u}) {
    util::Rng rng(seed);
    for (int round = 0; round < 250; ++round) {
      for (const auto& [name, value] : valid) {
        const std::string mutated = mutate(value, rng);
        util::Flags flags;
        declare(flags);
        const std::string flag = std::string("--") + name;
        const std::string joined = flag + "=" + mutated;
        const bool split = rng.chance(0.5);
        const char* argv_split[] = {"prog", flag.c_str(), mutated.c_str()};
        const char* argv_joined[] = {"prog", joined.c_str()};
        const bool ok =
            split ? flags.parse(3, const_cast<char**>(argv_split))
                  : flags.parse(2, const_cast<char**>(argv_joined));
        if (!ok) {
          ++rejected;
          continue;
        }
        ++parsed;
        const std::string ctx = joined + " (seed " + std::to_string(seed) + ")";
        try {
          EXPECT_TRUE(std::isfinite(flags.f64("rate"))) << ctx;
        } catch (const std::invalid_argument&) {
        }
        const std::int64_t count = flags.i64("count");
        EXPECT_TRUE(count >= -100 && count <= 1000) << ctx;
        const double hold = flags.seconds("hold");
        EXPECT_TRUE(hold >= 0.001 && hold <= 3600.0) << ctx;
        const double window = flags.seconds("window");
        EXPECT_TRUE(std::isfinite(window) && window >= 0.0) << ctx;
        const std::vector<std::int64_t> list = flags.i64_list("list");
        EXPECT_FALSE(list.empty()) << ctx;
        for (const std::int64_t v : list) {
          EXPECT_TRUE(v >= 1 && v <= 4096) << ctx;
        }
      }
    }
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  // Both outcomes happen, and each rejection names its flag.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
  std::size_t named = 0;
  for (std::size_t at = err.find("flag --"); at != std::string::npos;
       at = err.find("flag --", at + 1)) {
    ++named;
  }
  EXPECT_GE(named, rejected);
}

// ---------------------------------------------------------------------------
// Logging
// ---------------------------------------------------------------------------

TEST(Log, LinePrefixHasLevelAndMonotonicTimestamp) {
  const auto saved = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  ::testing::internal::CaptureStderr();
  DRAGON_LOG_INFO("hello %d", 42);
  DRAGON_LOG_WARN("watch out");
  DRAGON_LOG_DEBUG("fine print");
  const std::string out = ::testing::internal::GetCapturedStderr();
  util::set_log_level(saved);

  // Each line: "[LEVEL <seconds>.<millis>] <message>\n", one line per call.
  const std::regex line_re(
      R"(\[(DEBUG|INFO|WARN|ERROR) [0-9]+\.[0-9]{3}\] [^\n]*\n)");
  const std::regex full_re(
      R"(\[INFO [0-9]+\.[0-9]{3}\] hello 42\n)"
      R"(\[WARN [0-9]+\.[0-9]{3}\] watch out\n)"
      R"(\[DEBUG [0-9]+\.[0-9]{3}\] fine print\n)");
  EXPECT_TRUE(std::regex_match(out, full_re)) << out;

  // Timestamps are monotonic non-decreasing across the three lines.
  std::vector<double> stamps;
  for (auto it = std::sregex_iterator(out.begin(), out.end(), line_re);
       it != std::sregex_iterator(); ++it) {
    const std::string line = it->str();
    stamps.push_back(std::stod(line.substr(line.find(' ') + 1)));
  }
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_LE(stamps[0], stamps[1]);
  EXPECT_LE(stamps[1], stamps[2]);
}

TEST(Log, LevelFilterDropsBelowThreshold) {
  const auto saved = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  // A dropped line must not even build its arguments.
  int evaluated = 0;
  const auto counted = [&evaluated] { return ++evaluated; };
  ::testing::internal::CaptureStderr();
  DRAGON_LOG_DEBUG("should not appear %d", counted());
  DRAGON_LOG_INFO("should not appear %d", counted());
  DRAGON_LOG_WARN("should appear %d", counted());
  const std::string out = ::testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  EXPECT_EQ(out.find("should not appear"), std::string::npos);
  EXPECT_NE(out.find("should appear 1"), std::string::npos);
  EXPECT_EQ(evaluated, 1);
}

TEST(Log, LongMessagesSurviveTheStackBuffer) {
  const auto saved = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  const std::string payload(2000, 'x');  // larger than the stack buffer
  ::testing::internal::CaptureStderr();
  DRAGON_LOG_INFO("%s", payload.c_str());
  const std::string out = ::testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  EXPECT_NE(out.find(payload), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Ccdf, FractionStrictlyAbove) {
  const std::vector<double> samples{1, 2, 2, 3};
  EXPECT_DOUBLE_EQ(stats::fraction_above(samples, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(stats::fraction_above(samples, 2.0), 0.25);
  EXPECT_DOUBLE_EQ(stats::fraction_above(samples, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(stats::fraction_at_least(samples, 2.0), 0.75);
}

TEST(Ccdf, CurveMatchesDefinition) {
  const std::vector<double> samples{1, 1, 2, 4};
  const auto curve = stats::ccdf(samples);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_DOUBLE_EQ(curve[0].value, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].fraction, 0.5);
  EXPECT_DOUBLE_EQ(curve[1].value, 2.0);
  EXPECT_DOUBLE_EQ(curve[1].fraction, 0.25);
  EXPECT_DOUBLE_EQ(curve[2].value, 4.0);
  EXPECT_DOUBLE_EQ(curve[2].fraction, 0.0);
}

TEST(Ccdf, Percentiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_NEAR(stats::percentile(samples, 0.5), 50.0, 1.0);
  EXPECT_NEAR(stats::percentile(samples, 0.95), 95.0, 1.0);
  EXPECT_DOUBLE_EQ(stats::min_of(samples), 1.0);
  EXPECT_DOUBLE_EQ(stats::max_of(samples), 100.0);
  EXPECT_NEAR(stats::mean_of(samples), 50.5, 1e-9);
}

TEST(Table, RendersAligned) {
  stats::Table table({"metric", "paper", "measured"});
  table.add_row({"ASs", "39193", "1000"});
  table.add_comparison("efficiency", "0.79", 0.7812);
  const auto s = table.to_string();
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("0.781"), std::string::npos);
  EXPECT_THROW(table.add_row({"a", "b", "c", "d"}), std::invalid_argument);
}

TEST(Table, FormatNumberTrimsZeros) {
  EXPECT_EQ(stats::format_number(42.0), "42");
  EXPECT_EQ(stats::format_number(3.5), "3.5");
  EXPECT_EQ(stats::format_number(0.125, 3), "0.125");
  EXPECT_EQ(stats::format_number(0.1239, 3), "0.124");
}

}  // namespace
}  // namespace dragon
