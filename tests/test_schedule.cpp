// Tests for the Schedule representation: makespan/work/peak computations
// and processor assignment realizability.
#include <gtest/gtest.h>

#include <set>

#include "src/sched/schedule.hpp"

namespace moldable::sched {
namespace {

TEST(Schedule, EmptySchedule) {
  Schedule s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
  EXPECT_DOUBLE_EQ(s.total_work(), 0.0);
  EXPECT_EQ(s.peak_procs(), 0);
}

TEST(Schedule, MakespanAndWork) {
  Schedule s;
  s.add({0, 0.0, 2, 3.0});   // ends 3
  s.add({1, 1.0, 1, 5.0});   // ends 6
  s.add({2, 4.0, 4, 1.0});   // ends 5
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);
  EXPECT_DOUBLE_EQ(s.total_work(), 2 * 3.0 + 1 * 5.0 + 4 * 1.0);
}

TEST(Schedule, PeakProcsCountsOverlapOnly) {
  Schedule s;
  s.add({0, 0.0, 3, 2.0});
  s.add({1, 2.0, 3, 2.0});  // back to back: no overlap
  EXPECT_EQ(s.peak_procs(), 3);
  s.add({2, 1.0, 2, 2.0});  // overlaps both
  EXPECT_EQ(s.peak_procs(), 5);
}

TEST(AssignProcessors, ProducesDisjointSets) {
  Schedule s;
  s.add({0, 0.0, 2, 4.0});
  s.add({1, 0.0, 2, 2.0});
  s.add({2, 2.0, 2, 2.0});  // reuses job 1's processors
  const auto assignment = assign_processors(s, 4);
  ASSERT_EQ(assignment.size(), 3u);
  EXPECT_EQ(assignment[0].size(), 2u);
  // Jobs 0 and 1 overlap: all four processors distinct.
  std::set<procs_t> first_two(assignment[0].begin(), assignment[0].end());
  for (procs_t p : assignment[1]) EXPECT_EQ(first_two.count(p), 0u);
}

TEST(AssignProcessors, ThrowsOnCapacityViolation) {
  Schedule s;
  s.add({0, 0.0, 3, 1.0});
  s.add({1, 0.5, 2, 1.0});
  EXPECT_THROW(assign_processors(s, 4), internal_error);
}

TEST(AssignProcessors, RefusesHugeM) {
  Schedule s;
  s.add({0, 0.0, 1, 1.0});
  EXPECT_THROW(assign_processors(s, procs_t{1} << 40), std::invalid_argument);
}

}  // namespace
}  // namespace moldable::sched
