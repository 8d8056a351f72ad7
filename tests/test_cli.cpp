// Unit tests for src/util/cli: the strict value parser both CLIs and the
// record loader share, and the flag table that derives the parser, --help
// and the mode warnings from one row per flag.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/util/cli.hpp"

namespace moldable::util::cli {
namespace {

TEST(CliParseCount, AcceptsDigitsUpToTheDestinationMax) {
  EXPECT_EQ(parse_count<std::uint64_t>("0"), 0u);
  EXPECT_EQ(parse_count<std::uint64_t>("42"), 42u);
  EXPECT_EQ(parse_count<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_count<unsigned>("4294967295"), std::numeric_limits<unsigned>::max());
  EXPECT_EQ(parse_count<std::int64_t>("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
}

TEST(CliParseCount, RejectsWhatStoullWouldWrapOrTruncate) {
  for (const char* text : {"", "-1", "-16", "+5", " 5", "5 ", "12x", "0x7", "1.5",
                           "18446744073709551616", "99999999999999999999999"})
    EXPECT_THROW(parse_count<std::uint64_t>(text), BadValue) << "'" << text << "'";
}

TEST(CliParseCount, RangeChecksIntoTheDestinationType) {
  EXPECT_THROW(parse_count<unsigned>("4294967296"), BadValue);
  EXPECT_THROW(parse_count<std::uint16_t>("65536"), BadValue);
  // A signed destination (procs_t) refuses what a cast would wrap negative.
  EXPECT_THROW(parse_count<std::int64_t>("9223372036854775808"), BadValue);
  EXPECT_THROW(parse_count<std::int64_t>("18446744073709551615"), BadValue);
}

TEST(CliParseCount, DiagnosticNamesTheExpectedKind) {
  try {
    parse_count<std::size_t>("-1");
    FAIL() << "-1 must not parse as a count";
  } catch (const BadValue& e) {
    EXPECT_STREQ(e.what(), "needs a non-negative integer");
  }
}

TEST(CliParseReal, ParsesWholeStringsIncludingNanAndInf) {
  EXPECT_DOUBLE_EQ(parse_real("0.1"), 0.1);
  EXPECT_DOUBLE_EQ(parse_real("-1.5"), -1.5);
  EXPECT_DOUBLE_EQ(parse_real("1e3"), 1000.0);
  // Callers that need a finite value (--deadline) check for themselves.
  EXPECT_TRUE(std::isnan(parse_real("nan")));
  EXPECT_TRUE(std::isinf(parse_real("inf")));
  EXPECT_TRUE(std::isinf(parse_real("-inf")));
}

TEST(CliParseReal, RejectsEmptyJunkAndOutOfRange) {
  for (const char* text : {"", "nope", "1.5x", "4GiB", " 1", "1e999"})
    EXPECT_THROW(parse_real(text), BadValue) << "'" << text << "'";
}

TEST(CliParseText, RejectsOnlyTheEmptyString) {
  EXPECT_EQ(parse_text("a,b"), "a,b");
  EXPECT_EQ(parse_text(" "), " ");
  EXPECT_THROW(parse_text(""), BadValue);
}

/// A two-mode table over plain locals: what the drivers build, in small.
struct Knobs {
  std::size_t window = 16;
  double eps = 0.1;
  std::string name = "auto";
  bool serve = false;
};

FlagTable knob_table(Knobs& k) {
  return FlagTable("[options]", {
      {"--window", "N", "instances per\nmicro-batch", "serve", count(k.window)},
      {"--eps", "E", "approximation parameter", "", real(k.eps)},
      {"--name", "A", "solver name", "single-solver", text(k.name)},
      {"--serve", "", "serve stdin", "", on(k.serve)},
  });
}

void parse_args(FlagTable& table, std::initializer_list<const char*> args) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  table.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlagTable, ParsesEveryKindAndRecordsWhatWasGiven) {
  Knobs k;
  FlagTable table = knob_table(k);
  parse_args(table, {"--window", "8", "--serve", "--eps", "0.25", "--window", "4"});
  EXPECT_EQ(k.window, 4u);  // the last occurrence wins
  EXPECT_DOUBLE_EQ(k.eps, 0.25);
  EXPECT_TRUE(k.serve);
  EXPECT_EQ(k.name, "auto");
  EXPECT_TRUE(table.given("--window"));
  EXPECT_FALSE(table.given("--name"));
  EXPECT_EQ(table.given_count(), 3u);
}

TEST(CliFlagTable, HelpCarriesEveryRowWithItsModeAndIndent) {
  Knobs k;
  std::ostringstream os;
  knob_table(k).print_help(os, "prog");
  EXPECT_EQ(os.str(),
            "usage: prog [options]\n"
            "  --window N      serve: instances per\n"
            "                  micro-batch\n"
            "  --eps E         approximation parameter\n"
            "  --name A        single-solver: solver name\n"
            "  --serve         serve stdin\n");
}

TEST(CliFlagTable, WarnsOncePerGivenFlagOutsideItsMode) {
  Knobs k;
  FlagTable table = knob_table(k);
  parse_args(table, {"--window", "8", "--window", "9", "--name", "mrt"});
  testing::internal::CaptureStderr();
  table.warn_inactive({{"serve", false}, {"single-solver", true}});
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "warning: --window only affects serve mode\n");
  // A mode the caller forgot to classify is a programming error.
  EXPECT_THROW(table.warn_inactive({{"serve", true}}), std::logic_error);
}

TEST(CliFlagTableDeathTest, UsageErrorsExitTwoNamingTheFlag) {
  Knobs k;
  FlagTable table = knob_table(k);
  EXPECT_EXIT(parse_args(table, {"--window", "-16"}), testing::ExitedWithCode(2),
              "--window needs a non-negative integer, got '-16'");
  EXPECT_EXIT(parse_args(table, {"--name", ""}), testing::ExitedWithCode(2),
              "--name needs a non-empty value, got ''");
  EXPECT_EXIT(parse_args(table, {"--eps"}), testing::ExitedWithCode(2),
              "missing value for --eps");
  EXPECT_EXIT(parse_args(table, {"--bogus"}), testing::ExitedWithCode(2),
              "unknown option --bogus");
  EXPECT_EXIT(parse_args(table, {"--help"}), testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace moldable::util::cli
