// Tests for instance serialization: round trips, error handling, the token
// grammar (with a mutation fuzzer over it), and the compact-encoding
// property (closed-form jobs serialize in O(1) space).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "src/jobs/generators.hpp"
#include "src/jobs/io.hpp"
#include "src/jobs/reduction.hpp"
#include "src/traffic/traffic_gen.hpp"
#include "src/util/cli.hpp"
#include "src/util/prng.hpp"

namespace moldable::jobs {
namespace {

void expect_equivalent(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.machines(), b.machines());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_DOUBLE_EQ(a.job(j).t1(), b.job(j).t1());
    EXPECT_DOUBLE_EQ(a.job(j).tmin(), b.job(j).tmin());
    for (procs_t k = 1; k <= std::min<procs_t>(a.machines(), 64); k += 7)
      EXPECT_DOUBLE_EQ(a.job(j).time(k), b.job(j).time(k)) << "j=" << j << " k=" << k;
  }
}

class RoundTrip : public ::testing::TestWithParam<Family> {};

TEST_P(RoundTrip, TextRoundTripPreservesOracles) {
  const Family fam = GetParam();
  const procs_t m = fam == Family::kTable ? 48 : 1 << 16;
  const Instance inst = make_instance(fam, 12, m, 7);
  const Instance back = from_text(to_text(inst));
  expect_equivalent(inst, back);
}

INSTANTIATE_TEST_SUITE_P(Families, RoundTrip,
                         ::testing::Values(Family::kAmdahl, Family::kPowerLaw,
                                           Family::kCommOverhead, Family::kTable,
                                           Family::kMixed),
                         [](const auto& info) { return family_name(info.param); });

TEST(Io, ReductionInstanceRoundTrips) {
  const auto fp = make_yes_instance(3, 5);
  const auto red = reduce_to_scheduling(fp);
  expect_equivalent(red.instance, from_text(to_text(red.instance)));
}

TEST(Io, ClosedFormSerializationIsCompact) {
  // m = 2^40 but the text stays tiny: that is the point of the encoding.
  const Instance inst = make_instance(Family::kAmdahl, 4, procs_t{1} << 40, 3);
  const std::string text = to_text(inst);
  EXPECT_LT(text.size(), 1000u);
  expect_equivalent(inst, from_text(text));
}

TEST(Io, NamesSurviveRoundTrip) {
  std::vector<Job> jv;
  jv.emplace_back(std::make_shared<AmdahlTime>(10.0, 0.5), 8, "alpha");
  jv.emplace_back(std::make_shared<PowerLawTime>(5.0, 0.7), 8, "beta");
  const Instance inst(std::move(jv), 8, "my instance name");
  const Instance back = from_text(to_text(inst));
  EXPECT_EQ(back.name(), "my instance name");
  EXPECT_EQ(back.job(0).name(), "alpha");
  EXPECT_EQ(back.job(1).name(), "beta");
}

TEST(Io, NameDirectiveIsOptionalAndValidated) {
  const Instance anon = from_text("moldable-instance v1\nmachines 4\njob amdahl 1 0.5\n");
  EXPECT_TRUE(anon.name().empty());
  EXPECT_THROW(from_text("moldable-instance v1\nname \nmachines 4\n"),
               std::invalid_argument);
  // CRLF files: a bare directive is still an error, not a "\r" name.
  EXPECT_THROW(from_text("moldable-instance v1\r\nname \r\nmachines 4\r\n"),
               std::invalid_argument);
  const Instance crlf =
      from_text("moldable-instance v1\r\nname web pool\r\nmachines 4\r\njob amdahl 1 0.5\r\n");
  EXPECT_EQ(crlf.name(), "web pool");
}

TEST(Io, WriterRejectsOrOmitsUnparseableNames) {
  std::vector<Job> jv;
  jv.emplace_back(std::make_shared<AmdahlTime>(1.0, 0.5), 4, "j");
  const Instance newline_name({jv[0]}, 4, "web\npool");
  EXPECT_THROW(to_text(newline_name), std::invalid_argument);
  // A whitespace-only name would be rejected by the reader, so the writer
  // treats it as unnamed rather than emitting a bare directive.
  const Instance blank_name({jv[0]}, 4, "  ");
  EXPECT_TRUE(from_text(to_text(blank_name)).name().empty());
  // Surrounding whitespace is canonicalized away; the written form is the
  // fixed point of the round trip.
  const Instance padded_name({jv[0]}, 4, "  web pool ");
  const Instance once = from_text(to_text(padded_name));
  EXPECT_EQ(once.name(), "web pool");
  EXPECT_EQ(from_text(to_text(once)).name(), "web pool");
  // A job name is one token: with whitespace in it the line would not read
  // back, so the writer refuses it, naming the job.
  for (const std::string name : {"two words", "tab\tname", "cr\r"}) {
    const Instance spaced({Job(std::make_shared<AmdahlTime>(1.0, 0.5), 4, name)}, 4);
    try {
      to_text(spaced);
      ADD_FAILURE() << "wrote job name '" << name << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("'" + name + "'"), std::string::npos) << e.what();
    }
  }
}

/// A record with every directive and every job kind, in the writer's bytes.
constexpr char kPinnedText[] = R"(moldable-instance v1
name pinned bytes
arrival 0.10000000000000001
class gold
memcap 1e+21
mem 7 0 0.5 1 2 3 9.9999999999999995e-08 4
machines 4
job amdahl 10 0.5 a
job powerlaw 5 0.69999999999999996 p
job comm 8 0.20000000000000001 c
job table 4 4 3 2.5 2.5 t
job linred 4 2 l
job rigid 3 2 1000000 r
job logspeed 0.33333333333333331
)";

TEST(Io, WriterBytesArePinned) {
  std::vector<Job> jv;
  jv.emplace_back(std::make_shared<AmdahlTime>(10.0, 0.5), 4, "a");
  jv.emplace_back(std::make_shared<PowerLawTime>(5.0, 0.7), 4, "p");
  jv.emplace_back(std::make_shared<CommOverheadTime>(8.0, 0.2), 4, "c");
  jv.emplace_back(std::make_shared<TableTime>(std::vector<double>{4, 3, 2.5, 2.5}), 4, "t");
  jv.emplace_back(std::make_shared<LinearReductionTime>(4, 2), 4, "l");
  jv.emplace_back(std::make_shared<RigidStepTime>(3.0, 2, 1e6), 4, "r");
  jv.emplace_back(std::make_shared<LogSpeedupTime>(1.0 / 3), 4);
  Instance inst(std::move(jv), 4, "pinned bytes");
  inst.set_arrival(0.1);
  inst.set_sla_class("gold");
  inst.set_memory_capacity(1e21);
  inst.set_job_memory({0, 0.5, 1, 2, 3, 1e-7, 4});
  EXPECT_EQ(to_text(inst), kPinnedText);
  EXPECT_EQ(to_text(from_text(kPinnedText)), kPinnedText);
}

TEST(Io, EveryFieldIsOneStrictToken) {
  // Each edit replaces one line of a valid record. A field is one whole
  // token of util::cli's grammar, reals are finite, and a line holds
  // exactly its fields plus at most one job name — so each is refused,
  // naming the edited line.
  const std::vector<std::string> base = {"moldable-instance v1", "arrival 1.5", "machines 4",
                                         "job amdahl 10 0.5 a"};
  const auto join = [](const std::vector<std::string>& lines) {
    std::string text;
    for (const std::string& line : lines) text += line + "\n";
    return text;
  };
  ASSERT_NO_THROW(from_text(join(base)));
  const std::vector<std::pair<std::size_t, std::string>> edits = {
      {3, "machines 1e3"},           {3, "machines 8 junk"},
      {4, "job amdahl 10 0.5x"},     {4, "job linred 4 2.9"},
      {4, "job logspeed 5 7 8"},     {4, "job amdahl +10 0.5"},
      {4, "job powerlaw 5 0.7 a b"}, {4, "job amdahl 1 0.5 # note"},
      {1, "moldable-instance v2"},   {2, "arrival +1"},
      {4, "job amdahl inf 0.5"},     {4, "job rigid 1 2 inf"},
      {4, "job comm 1 nan"}};
  for (const auto& [line, edit] : edits) {
    std::vector<std::string> lines = base;
    lines[line - 1] = edit;
    try {
      from_text(join(lines));
      ADD_FAILURE() << "accepted '" << edit << "'";
    } catch (const std::invalid_argument& e) {
      const std::string prefix = "instance parse error, line " + std::to_string(line) + ":";
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u) << e.what();
    }
  }
}

TEST(Io, IndentedHeaderParses) {
  // The stream reader cuts records at an indented header, so the parser
  // takes one too: the header is its two tokens, wherever they start.
  const std::string indented = " \tmoldable-instance v1\nmachines 4\njob amdahl 1 0.5\n";
  EXPECT_EQ(from_text(indented).machines(), 4);
  std::istringstream stream("moldable-instance v1\nmachines 2\n" + indented);
  InstanceStreamReader reader(stream);
  StreamRecord rec;
  ASSERT_TRUE(reader.next(rec));
  ASSERT_TRUE(reader.next(rec));
  EXPECT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.line, 3u);
}

TEST(Io, ArrivalAndClassRoundTrip) {
  Instance inst = make_instance(Family::kAmdahl, 4, 64, 5);
  inst.set_arrival(12.5);
  inst.set_sla_class("interactive");
  const Instance back = from_text(to_text(inst));
  EXPECT_DOUBLE_EQ(back.arrival(), 12.5);
  EXPECT_EQ(back.sla_class(), "interactive");
  // The written form is the round trip's fixed point, metadata included.
  EXPECT_EQ(to_text(back), to_text(inst));
}

TEST(Io, MetadataDirectivesAreOptionalAndOrderFree) {
  const Instance plain = from_text("moldable-instance v1\nmachines 4\njob amdahl 1 0.5\n");
  EXPECT_DOUBLE_EQ(plain.arrival(), 0.0);
  EXPECT_TRUE(plain.sla_class().empty());
  // Defaults are omitted on write: files predating the directives are
  // byte-identical, and the version token stays v1.
  EXPECT_EQ(to_text(plain).find("arrival"), std::string::npos);
  EXPECT_EQ(to_text(plain).find("class"), std::string::npos);

  const Instance reordered = from_text(
      "moldable-instance v1\nclass batch\narrival 3\nname web pool\nmachines 4\n"
      "job amdahl 1 0.5\n");
  EXPECT_EQ(reordered.name(), "web pool");
  EXPECT_DOUBLE_EQ(reordered.arrival(), 3.0);
  EXPECT_EQ(reordered.sla_class(), "batch");
}

TEST(Io, MalformedMetadataDirectivesAreRejected) {
  const auto bad = [](const std::string& directive) {
    return "moldable-instance v1\n" + directive + "\nmachines 4\njob amdahl 1 0.5\n";
  };
  EXPECT_THROW(from_text(bad("arrival")), std::invalid_argument);        // no value
  EXPECT_THROW(from_text(bad("arrival -1")), std::invalid_argument);     // negative
  EXPECT_THROW(from_text(bad("arrival soon")), std::invalid_argument);   // non-numeric
  EXPECT_THROW(from_text(bad("arrival inf")), std::invalid_argument);    // non-finite
  EXPECT_THROW(from_text(bad("arrival nan")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("arrival 1 2")), std::invalid_argument);    // trailing junk
  EXPECT_THROW(from_text(bad("class")), std::invalid_argument);          // no token
  EXPECT_THROW(from_text(bad("class a b")), std::invalid_argument);      // two tokens
  EXPECT_THROW(from_text(bad("arrival 1\narrival 2")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("class a\nclass b")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("name x\nname y")), std::invalid_argument);
  // Errors carry the offending line, like every other parse diagnostic.
  try {
    from_text(bad("arrival -1"));
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Io, InstanceMetadataSettersValidate) {
  Instance inst = make_instance(Family::kAmdahl, 3, 16, 1);
  EXPECT_THROW(inst.set_arrival(-0.5), std::invalid_argument);
  EXPECT_THROW(inst.set_arrival(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(inst.set_arrival(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(inst.set_sla_class("two words"), std::invalid_argument);
  EXPECT_THROW(inst.set_sla_class("tab\tby"), std::invalid_argument);
  inst.set_arrival(7);
  inst.set_sla_class("gold");
  EXPECT_DOUBLE_EQ(inst.arrival(), 7.0);
  EXPECT_EQ(inst.sla_class(), "gold");
  // An explicit "default" is the unlabelled class (one stats bucket, one
  // round-trip fixed point), not a sibling of it.
  inst.set_sla_class("default");
  EXPECT_TRUE(inst.sla_class().empty());
  const Instance explicit_default = from_text(
      "moldable-instance v1\nclass default\nmachines 4\njob amdahl 1 0.5\n");
  EXPECT_TRUE(explicit_default.sla_class().empty());
  EXPECT_EQ(to_text(explicit_default).find("class"), std::string::npos);
}

TEST(Io, StreamReaderSplitsConcatenatedRecords) {
  const Instance a = make_instance(Family::kAmdahl, 4, 64, 1);
  const Instance b = make_instance(Family::kPowerLaw, 4, 64, 2);
  std::istringstream stream(to_text(a) + "# between records\n\n" + to_text(b));
  InstanceStreamReader reader(stream);

  StreamRecord rec;
  ASSERT_TRUE(reader.next(rec));
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.ordinal, 0u);
  EXPECT_EQ(rec.line, 1u);
  expect_equivalent(rec.instance, a);
  ASSERT_TRUE(reader.next(rec));
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.ordinal, 1u);
  expect_equivalent(rec.instance, b);
  EXPECT_FALSE(reader.next(rec));
  EXPECT_FALSE(reader.next(rec));  // stays exhausted
}

TEST(Io, StreamReaderYieldsFlushMarkersWithoutConsumingOrdinals) {
  const Instance a = make_instance(Family::kAmdahl, 4, 64, 1);
  const Instance b = make_instance(Family::kPowerLaw, 4, 64, 2);
  // One marker mid-body (terminates the record like a header would) and one
  // between records — the two places a multiplexing source can plant them.
  std::istringstream stream(to_text(a) + "moldable-flush v1\n" + to_text(b) +
                            "  moldable-flush v1  \n");
  InstanceStreamReader reader(stream);

  StreamRecord rec;
  ASSERT_TRUE(reader.next(rec));  // record a, cut short by the marker
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_FALSE(rec.flush);
  EXPECT_EQ(rec.ordinal, 0u);
  expect_equivalent(rec.instance, a);

  ASSERT_TRUE(reader.next(rec));  // the marker itself, as its own record
  EXPECT_TRUE(rec.flush);
  EXPECT_FALSE(rec.ok);
  EXPECT_TRUE(rec.error.empty());  // not an instance, but not an error either

  ASSERT_TRUE(reader.next(rec));  // ordinals resume where they left off:
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.ordinal, 1u);  // flush consumed none
  expect_equivalent(rec.instance, b);

  ASSERT_TRUE(reader.next(rec));  // trailing marker, whitespace-tolerant
  EXPECT_TRUE(rec.flush);
  EXPECT_FALSE(reader.next(rec));
  EXPECT_FALSE(reader.next(rec));  // stays exhausted
}

TEST(Io, StreamReaderIsolatesMalformedRecordsAndNamesAnonymousOnes) {
  std::istringstream stream(
      "stray garbage\n"
      "moldable-instance v1\nmachines 4\njob bogus 1 2\n"
      "moldable-instance v1\nmachines 8\njob amdahl 10 0.5\n");
  InstanceStreamReader reader(stream);

  StreamRecord rec;
  ASSERT_TRUE(reader.next(rec));  // the stray line is an error record
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(rec.line, 1u);
  EXPECT_NE(rec.error.find("header"), std::string::npos) << rec.error;

  ASSERT_TRUE(reader.next(rec));  // bad body: isolated, reading continues
  EXPECT_FALSE(rec.ok);
  EXPECT_EQ(rec.line, 2u);
  EXPECT_NE(rec.error.find("unknown job kind"), std::string::npos) << rec.error;

  ASSERT_TRUE(reader.next(rec));  // the good record still parses
  ASSERT_TRUE(rec.ok) << rec.error;
  EXPECT_EQ(rec.ordinal, 2u);
  EXPECT_EQ(rec.instance.name(), "stream-2");  // unnamed -> ordinal name
  EXPECT_FALSE(reader.next(rec));
}

TEST(Io, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "moldable-instance v1\n"
      "# a comment\n"
      "\n"
      "machines 4\n"
      "  # indented comment\n"
      "job amdahl 10 0.5 j0\n";
  const Instance inst = from_text(text);
  EXPECT_EQ(inst.size(), 1u);
  EXPECT_EQ(inst.machines(), 4);
}

TEST(Io, ParseErrorsAreDescriptive) {
  EXPECT_THROW(from_text("nonsense"), std::invalid_argument);
  EXPECT_THROW(from_text("moldable-instance v1\nmachines 0\n"), std::invalid_argument);
  EXPECT_THROW(from_text("moldable-instance v1\nmachines 4\njob bogus 1 2\n"),
               std::invalid_argument);
  EXPECT_THROW(from_text("moldable-instance v1\nmachines 4\njob amdahl 10\n"),
               std::invalid_argument);
  // Table length mismatch with machines.
  EXPECT_THROW(from_text("moldable-instance v1\nmachines 4\njob table 2 5 4\n"),
               std::invalid_argument);
  // Invalid oracle parameters bubble up with line info.
  try {
    from_text("moldable-instance v1\nmachines 4\njob amdahl -1 0.5\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Io, MachineCountAbove2To62IsRefused) {
  // kMaxMachines is the largest count that parses; one more is refused on
  // the machines line, with the bound named, before any job is built.
  const std::string job = "job amdahl 10 0.5\n";
  const Instance at_bound =
      from_text("moldable-instance v1\nmachines 4611686018427387904\n" + job);
  EXPECT_EQ(at_bound.machines(), kMaxMachines);
  try {
    from_text("moldable-instance v1\nmemcap 1\nmem 1 1e300\n"
              "machines 4611686018427387905\n" + job);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("2^62"), std::string::npos) << what;
  }
  // INT64_MAX machines used to overflow m + 1 in min_feasible_allotment.
  EXPECT_THROW(from_text("moldable-instance v1\nmemcap 1\nmem 1 1e300\n"
                         "machines 9223372036854775807\n" + job),
               std::invalid_argument);
  EXPECT_THROW(Instance({}, kMaxMachines + 1), std::invalid_argument);
}

TEST(Io, FileRoundTrip) {
  const Instance inst = make_instance(Family::kMixed, 6, 128, 11);
  const std::string path = "/tmp/moldable_io_test.inst";
  save_instance(path, inst);
  const Instance back = load_instance(path);
  expect_equivalent(inst, back);
  std::remove(path.c_str());
  EXPECT_THROW(load_instance("/nonexistent/dir/x.inst"), std::runtime_error);
}

class DirLoad : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID-unique so concurrent runs of this binary on one host (parallel CI
    // jobs, two build trees) cannot clobber each other's fixture files.
    dir_ = std::filesystem::temp_directory_path() /
           ("moldable_dirload_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& file) const { return (dir_ / file).string(); }

  std::filesystem::path dir_;
};

TEST_F(DirLoad, RoundTripsWrittenInstancesInSortedOrder) {
  const Instance a = make_instance(Family::kAmdahl, 6, 128, 11);
  const Instance b = make_instance(Family::kPowerLaw, 6, 128, 12);
  save_instance(path("b_second.inst"), b);
  save_instance(path("a_first.inst"), a);

  const DirectoryLoad load = load_instances_from_dir(dir_.string());
  EXPECT_EQ(load.loaded, 2u);
  EXPECT_EQ(load.skipped, 0u);
  ASSERT_EQ(load.instances.size(), 2u);
  expect_equivalent(load.instances[0], a);  // sorted by path, not write order
  expect_equivalent(load.instances[1], b);
  // Generator instances carry an inline name, which round-trips.
  EXPECT_EQ(load.instances[0].name(), a.name());
  EXPECT_EQ(load.instances[1].name(), b.name());
}

TEST_F(DirLoad, NamelessFileGetsStemName) {
  std::ofstream(path("anon.inst")) << "moldable-instance v1\nmachines 8\n"
                                      "job amdahl 10 0.5\n";
  const DirectoryLoad load = load_instances_from_dir(dir_.string());
  ASSERT_EQ(load.instances.size(), 1u);
  EXPECT_EQ(load.instances[0].name(), "anon");
}

TEST_F(DirLoad, MalformedFileIsSkippedWithDiagnostic) {
  save_instance(path("good.inst"), make_instance(Family::kMixed, 5, 64, 3));
  std::ofstream(path("bad.inst")) << "moldable-instance v1\nmachines 4\njob bogus 1\n";

  const DirectoryLoad load = load_instances_from_dir(dir_.string());
  EXPECT_EQ(load.loaded, 1u);
  EXPECT_EQ(load.skipped, 1u);
  ASSERT_EQ(load.instances.size(), 1u);
  ASSERT_EQ(load.files.size(), 2u);
  EXPECT_FALSE(load.files[0].ok);  // bad.inst sorts first
  EXPECT_NE(load.files[0].error.find("unknown job kind"), std::string::npos)
      << load.files[0].error;
  EXPECT_TRUE(load.files[1].ok);
  EXPECT_TRUE(load.files[1].error.empty());
}

TEST_F(DirLoad, EmptyDirectoryLoadsNothing) {
  const DirectoryLoad load = load_instances_from_dir(dir_.string());
  EXPECT_TRUE(load.instances.empty());
  EXPECT_TRUE(load.files.empty());
  EXPECT_EQ(load.loaded, 0u);
  EXPECT_EQ(load.skipped, 0u);
}

TEST_F(DirLoad, FailedSaveDoesNotClobberExistingFile) {
  const Instance good = make_instance(Family::kAmdahl, 3, 16, 9);
  save_instance(path("keep.inst"), good);
  std::vector<Job> jv;
  jv.emplace_back(std::make_shared<AmdahlTime>(1.0, 0.5), 16, "j");
  const Instance bad_name(std::move(jv), 16, "web\npool");
  EXPECT_THROW(save_instance(path("keep.inst"), bad_name), std::invalid_argument);
  expect_equivalent(load_instance(path("keep.inst")), good);  // untouched
}

TEST(Io, LoadDirRejectsMissingOrNonDirectory) {
  EXPECT_THROW(load_instances_from_dir("/nonexistent/moldable/dir"), std::runtime_error);
  const std::string file =
      std::filesystem::temp_directory_path() /
      ("moldable_not_a_dir_" + std::to_string(::getpid()));
  std::ofstream(file) << "x";
  EXPECT_THROW(load_instances_from_dir(file), std::runtime_error);
  std::remove(file.c_str());
}

TEST(Io, MemoryAxisRoundTripsByteExactly) {
  Instance inst = make_instance(Family::kAmdahl, 4, 64, 5);
  inst.set_memory_capacity(16.0);
  inst.set_job_memory({1.5, 32.0, 0.25, 4.0});
  const Instance back = from_text(to_text(inst));
  expect_equivalent(inst, back);
  EXPECT_DOUBLE_EQ(back.memory_capacity(), 16.0);
  ASSERT_TRUE(back.has_job_memory());
  for (std::size_t j = 0; j < inst.size(); ++j)
    EXPECT_DOUBLE_EQ(back.job_memory(j), inst.job_memory(j)) << "j=" << j;
  EXPECT_TRUE(back.memory_constrained());
  // The written form is the round trip's fixed point, memory included.
  EXPECT_EQ(to_text(back), to_text(inst));
  // Memory-free instances omit both directives: legacy files byte-identical.
  const Instance plain = make_instance(Family::kAmdahl, 4, 64, 5);
  EXPECT_EQ(to_text(plain).find("memcap"), std::string::npos);
  EXPECT_EQ(to_text(plain).find("mem "), std::string::npos);
}

TEST(Io, MemoryDirectivesAreValidated) {
  const auto bad = [](const std::string& directive) {
    return "moldable-instance v1\n" + directive + "\nmachines 4\njob amdahl 1 0.5\n";
  };
  EXPECT_THROW(from_text(bad("memcap")), std::invalid_argument);       // no value
  EXPECT_THROW(from_text(bad("memcap 0")), std::invalid_argument);     // not > 0
  EXPECT_THROW(from_text(bad("memcap -2")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("memcap inf")), std::invalid_argument);   // non-finite
  EXPECT_THROW(from_text(bad("memcap nan")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("memcap 1 2")), std::invalid_argument);   // trailing junk
  EXPECT_THROW(from_text(bad("memcap 1\nmemcap 2")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("mem 1 2\nmem 1 2")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("mem 2 1")), std::invalid_argument);      // short list
  EXPECT_THROW(from_text(bad("mem 1 1 5")), std::invalid_argument);    // trailing junk
  EXPECT_THROW(from_text(bad("mem 1 inf")), std::invalid_argument);    // non-finite
  EXPECT_THROW(from_text(bad("mem 1 nan")), std::invalid_argument);
  EXPECT_THROW(from_text(bad("mem 1 -3")), std::invalid_argument);     // negative
  // A 'mem' count disagreeing with the job list is caught at end of parse,
  // and the diagnostic points at the 'mem' line.
  try {
    from_text(bad("mem 3 1 1 1"));  // 3 footprints, 1 job
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

/// Peak resident set size of this process so far, in KiB (Linux ru_maxrss).
long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

/// A record that declares a huge count but carries one value must be
/// rejected with `diagnostic` at a cost that follows its bytes: the parser
/// may not allocate (and zero) the declared count before reading values.
void expect_rejected_cheaply(const std::string& text, const std::string& diagnostic) {
  const long before = peak_rss_kib();
  try {
    from_text(text);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(diagnostic), std::string::npos) << e.what();
  }
  EXPECT_LT(peak_rss_kib() - before, 16 * 1024) << "peak RSS growth in KiB";
}

TEST(Io, HugeTableLengthCostsOnlyItsBytes) {
  expect_rejected_cheaply(
      "moldable-instance v1\nmachines 50000000\njob table 50000000 1\n",
      "table: too few values");
}

TEST(Io, HugeMemCountCostsOnlyItsBytes) {
  expect_rejected_cheaply(
      "moldable-instance v1\nmem 50000000 1\nmachines 4\njob amdahl 1 0.5\n",
      "'mem' values must be finite and >= 0");
}

TEST(Io, MemorySettersValidate) {
  Instance inst = make_instance(Family::kAmdahl, 3, 16, 1);
  EXPECT_THROW(inst.set_memory_capacity(-1.0), std::invalid_argument);
  EXPECT_THROW(inst.set_memory_capacity(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(inst.set_memory_capacity(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(inst.set_job_memory({1.0, 2.0}), std::invalid_argument);  // wrong size
  EXPECT_THROW(inst.set_job_memory({1.0, -2.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(
      inst.set_job_memory({1.0, std::numeric_limits<double>::quiet_NaN(), 3.0}),
      std::invalid_argument);
  inst.set_memory_capacity(8.0);
  inst.set_job_memory({1.0, 2.0, 3.0});
  EXPECT_TRUE(inst.memory_constrained());
  // Capacity 0 un-caps: footprints alone do not bind.
  inst.set_memory_capacity(0.0);
  EXPECT_FALSE(inst.memory_constrained());
}

/// The lines of `text`, without their newlines.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t lo = 0; lo < text.size();) {
    const std::size_t nl = std::min(text.find('\n', lo), text.size());
    lines.push_back(text.substr(lo, nl - lo));
    lo = nl + 1;
  }
  return lines;
}

/// The fuzzer's seed records: two storms over every generator family with
/// arrivals and classes, one of them with memory footprints, the records of
/// both fixture files, and the pinned record.
std::vector<std::string> fuzz_seeds() {
  traffic::TrafficConfig config;
  config.curve = "const:rate=20";
  config.horizon = 3;
  config.jobs_cap = 4;
  config.machines = 8;
  config.families = all_families();
  config.mem_min = 0.25;
  config.mem_max = 8;
  std::vector<std::string> seeds;
  for (const double memory_capacity : {0.0, 2.0}) {
    config.memory_capacity = memory_capacity;
    ++config.seed;
    for (const Instance& inst : traffic::TrafficGenerator(config).generate())
      seeds.push_back(to_text(inst));
  }
  const std::filesystem::path fixtures = std::filesystem::path(__FILE__).parent_path() / "fixtures";
  for (const char* file : {"stream_smoke.txt", "memo_twins.txt"}) {
    std::ifstream in(fixtures / file);
    EXPECT_TRUE(in) << "missing fixture " << file;
    bool in_record = false;  // the file's leading comments belong to no record
    for (std::string line; std::getline(in, line);) {
      if (line.rfind("moldable-instance", 0) == 0) {
        seeds.emplace_back();
        in_record = true;
      }
      if (in_record) seeds.back() += line + "\n";
    }
  }
  seeds.push_back(kPinnedText);
  return seeds;
}

/// One or two edits of `text` drawn from `rng`: a token inserted, deleted,
/// replaced or suffixed, a line duplicated, dropped or swapped, or the text
/// truncated at a byte.
std::string mutate(const std::string& text, util::Prng& rng) {
  static const std::vector<std::string> kTokens = {
      "1e3", "+1", "-1", "inf", "nan", "-0", "0x10", "1.5x", "#", "4294967296",
      "99999999999999999999", "1e400", "1e19", "1e300"};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<std::string> lines = split_lines(text);
  for (std::int64_t edits = rng.uniform_int(1, 2); edits > 0 && !lines.empty(); --edits) {
    const std::size_t at = pick(lines.size());
    std::vector<std::string> w;
    for (const std::string_view tok : util::cli::words(lines[at])) w.emplace_back(tok);
    const std::size_t op = pick(8);
    const std::string& token = kTokens[pick(kTokens.size())];
    if (op == 0) {
      w.insert(w.begin() + static_cast<std::ptrdiff_t>(pick(w.size() + 1)), token);
    } else if (op <= 3 && !w.empty()) {
      const std::size_t i = pick(w.size());
      if (op == 1) w.erase(w.begin() + static_cast<std::ptrdiff_t>(i));
      if (op == 2) w[i] = token;
      if (op == 3) w[i] += token;
    } else if (op == 4) {
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), lines[at]);
      continue;
    } else if (op == 5) {
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      continue;
    } else if (op == 6) {
      std::swap(lines[at], lines[pick(lines.size())]);
      continue;
    } else if (op == 7) {
      std::string joined;
      for (const std::string& line : lines) joined += line + "\n";
      lines = split_lines(joined.substr(0, pick(joined.size() + 1)));
      continue;
    }
    lines[at].clear();
    for (const std::string& tok : w) lines[at] += (lines[at].empty() ? "" : " ") + tok;
  }
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

TEST(Io, MutatedRecordsAreRefusedOrRoundTrip) {
  // Every mutant of a valid record is either refused with a diagnostic
  // naming one of its lines, or parses to an instance whose written form is
  // the round trip's fixed point.
  const std::vector<std::string> seeds = fuzz_seeds();
  ASSERT_GT(seeds.size(), 50u);
  util::Prng rng(20);
  std::size_t refused = 0;
  constexpr std::size_t kMutants = 100000;
  for (std::size_t n = 0; n < kMutants; ++n) {
    const std::string mutant = mutate(seeds[n % seeds.size()], rng);
    std::optional<Instance> parsed;
    try {
      parsed = from_text(mutant);
    } catch (const std::invalid_argument& e) {
      ++refused;
      const std::string what = e.what();
      const std::string prefix = "instance parse error, line ";
      ASSERT_EQ(what.rfind(prefix, 0), 0u) << what << "\n" << mutant;
      const std::size_t colon = what.find(':', prefix.size());
      const auto line = util::cli::parse_count<std::size_t>(
          std::string_view(what).substr(prefix.size(), colon - prefix.size()));
      ASSERT_LE(line, split_lines(mutant).size()) << what << "\n" << mutant;
      continue;
    }
    const std::string once = to_text(*parsed);
    ASSERT_EQ(to_text(from_text(once)), once) << mutant;
  }
  // Both outcomes are exercised.
  EXPECT_GT(refused, kMutants / 10);
  EXPECT_GT(kMutants - refused, kMutants / 20);
}

/// The written form minus its `name` line, the part content_bytes covers.
std::string text_without_name(const Instance& inst) {
  std::string text = to_text(inst);
  const std::size_t body = text.find('\n') + 1;
  if (text.compare(body, 5, "name ") == 0) text.erase(body, text.find('\n', body) + 1 - body);
  return text;
}

TEST(Io, ContentBytesAgreeWithCanonicalText) {
  // Over the fuzzer's accepted mutants, each against its seed record: equal
  // content bytes exactly when the written forms match once the name line
  // is dropped, and the bytes survive a text round trip. Metadata
  // directives may come in any order, so swapped and duplicated lines give
  // many equal pairs.
  const std::vector<std::string> seeds = fuzz_seeds();
  util::Prng rng(24);
  std::size_t accepted = 0, equal = 0;
  constexpr std::size_t kMutants = 50000;
  for (std::size_t n = 0; n < kMutants; ++n) {
    const std::string& seed = seeds[n % seeds.size()];
    const std::string mutant = mutate(seed, rng);
    std::optional<Instance> a;
    try {
      a = from_text(mutant);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    const Instance b = from_text(seed);
    const std::optional<std::string> bytes_a = content_bytes(*a);
    const std::optional<std::string> bytes_b = content_bytes(b);
    ASSERT_TRUE(bytes_a && bytes_b) << mutant;
    const bool same_text = text_without_name(*a) == text_without_name(b);
    ASSERT_EQ(*bytes_a == *bytes_b, same_text) << "seed:\n" << seed << "mutant:\n" << mutant;
    if (same_text) ++equal;
    ASSERT_EQ(content_bytes(from_text(to_text(*a))), bytes_a) << mutant;
  }
  // Both sides of the equivalence are exercised.
  EXPECT_GT(equal, kMutants / 100);
  EXPECT_GT(accepted - equal, kMutants / 20);

  // A negative zero arrival parses to -0.0, which the writer omits like 0:
  // the same instance as a record with no arrival.
  const std::string plain = "moldable-instance v1\nmachines 4\njob amdahl 10 0.5\n";
  const std::string minus_zero =
      "moldable-instance v1\narrival -0\nmachines 4\njob amdahl 10 0.5\n";
  EXPECT_EQ(to_text(from_text(minus_zero)), to_text(from_text(plain)));
  EXPECT_EQ(content_bytes(from_text(minus_zero)), content_bytes(from_text(plain)));
  // The name is no part of the identity; every other field is.
  std::string renamed = kPinnedText;
  renamed.replace(renamed.find("pinned bytes"), 12, "other");
  EXPECT_EQ(content_bytes(from_text(renamed)), content_bytes(from_text(kPinnedText)));
}

TEST(Io, RigidJobsRoundTrip) {
  std::vector<Job> jv;
  jv.emplace_back(std::make_shared<RigidStepTime>(3.0, 2, 1e6), 8, "rigid0");
  const Instance inst(std::move(jv), 8);
  const Instance back = from_text(to_text(inst));
  EXPECT_DOUBLE_EQ(back.job(0).time(1), 1e6);
  EXPECT_DOUBLE_EQ(back.job(0).time(2), 3.0);
}

}  // namespace
}  // namespace moldable::jobs
