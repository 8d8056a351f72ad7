// Tests for the baseline schedulers, and the lt-2approx row built on the
// Ludwig-Tiwari one.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "src/core/baselines.hpp"
#include "src/core/estimator.hpp"
#include "src/engine/registry.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/list_scheduler.hpp"
#include "src/sched/validator.hpp"

namespace moldable::core {
namespace {

using jobs::Family;
using jobs::Instance;
using jobs::make_instance;

TEST(LudwigTiwari, TwoApproxAcrossFamilies) {
  for (Family fam : jobs::all_families()) {
    const procs_t m = fam == Family::kTable ? 64 : 512;
    const Instance inst = make_instance(fam, 40, m, 3);
    const BaselineResult r = ludwig_tiwari_schedule(inst);
    ASSERT_TRUE(sched::validate(r.schedule, inst).ok) << jobs::family_name(fam);
    EXPECT_LE(r.schedule.makespan(), 2 * r.lower_bound * (1 + 1e-9))
        << jobs::family_name(fam);
    EXPECT_GE(r.schedule.makespan(), r.lower_bound * (1 - 1e-9));
  }
}

TEST(Sequential, ValidButPossiblyPoor) {
  const Instance inst = make_instance(Family::kPowerLaw, 20, 64, 5);
  const BaselineResult r = sequential_schedule(inst);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
  for (const auto& a : r.schedule.assignments()) EXPECT_EQ(a.procs, 1);
}

TEST(EqualShare, SplitsMachinesEvenly) {
  const Instance inst = make_instance(Family::kAmdahl, 8, 64, 7);
  const BaselineResult r = equal_share_schedule(inst);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
  for (const auto& a : r.schedule.assignments()) EXPECT_EQ(a.procs, 8);
}

TEST(EqualShare, MoreJobsThanMachines) {
  const Instance inst = make_instance(Family::kAmdahl, 50, 16, 9);
  const BaselineResult r = equal_share_schedule(inst);
  ASSERT_TRUE(sched::validate(r.schedule, inst).ok);
  for (const auto& a : r.schedule.assignments()) EXPECT_EQ(a.procs, 1);
}

TEST(Baselines, EmptyInstances) {
  const Instance inst({}, 4);
  EXPECT_TRUE(ludwig_tiwari_schedule(inst).schedule.empty());
  EXPECT_TRUE(sequential_schedule(inst).schedule.empty());
  EXPECT_TRUE(equal_share_schedule(inst).schedule.empty());
}

// The lt-2approx registry row (schedule_moldable's kLudwigTiwari over
// ludwig_tiwari_schedule), which the engine treats as memory-aware.
ScheduleResult lt_row(const Instance& inst) {
  return engine::AlgorithmRegistry::global().solve("lt-2approx", inst, {});
}

TEST(LudwigTiwari, MemoryFreeRowIsTheEstimatorAllotmentListScheduled) {
  // Section 3's 2-approximation, unchanged by the memory axis: the
  // estimator's allotment, list scheduled, certified by omega. Footprints
  // without a capacity (or a capacity without footprints) do not bind.
  for (Family fam : {Family::kAmdahl, Family::kPowerLaw, Family::kMixed}) {
    Instance inst = make_instance(fam, 24, 128, 13);
    if (fam == Family::kMixed) inst.set_job_memory(std::vector<double>(inst.size(), 1e6));
    if (fam == Family::kPowerLaw) inst.set_memory_capacity(0.5);
    ASSERT_FALSE(inst.memory_constrained());
    const EstimatorResult est = estimate_makespan(inst);
    const sched::Schedule expected = sched::list_schedule(inst, est.allotment);
    const ScheduleResult r = lt_row(inst);
    ASSERT_EQ(r.schedule.size(), expected.size()) << jobs::family_name(fam);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const sched::Assignment& got = r.schedule.assignments()[i];
      const sched::Assignment& want = expected.assignments()[i];
      EXPECT_EQ(got.job, want.job) << jobs::family_name(fam) << " " << i;
      EXPECT_EQ(got.procs, want.procs) << jobs::family_name(fam) << " " << i;
      EXPECT_EQ(got.start, want.start) << jobs::family_name(fam) << " " << i;
    }
    EXPECT_EQ(r.makespan, expected.makespan()) << jobs::family_name(fam);
    EXPECT_EQ(r.lower_bound, est.omega) << jobs::family_name(fam);
    EXPECT_EQ(r.guarantee, 2.0) << jobs::family_name(fam);
  }
}

TEST(LudwigTiwari, RespectsTheMemoryConstraint) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Instance inst = make_instance(Family::kMixed, 12, 32, seed);
    inst.set_memory_capacity(2.0);
    std::vector<double> mem(inst.size());
    for (std::size_t j = 0; j < mem.size(); ++j)
      mem[j] = 0.5 + static_cast<double>((j * 7 + seed) % 12);  // kmin up to 7
    inst.set_job_memory(std::move(mem));

    const ScheduleResult r = lt_row(inst);
    const sched::ValidationResult v = sched::validate(r.schedule, inst);
    ASSERT_TRUE(v.ok) << "seed=" << seed
                      << (v.errors.empty() ? "" : ": " + v.errors.front());
    // Every allotment is at or above the job's minimum feasible width.
    for (const auto& a : r.schedule.assignments())
      EXPECT_GE(a.procs, inst.min_feasible_allotment(a.job)) << seed;
    // The reported bound folds the memory-aware area bound in.
    EXPECT_GE(r.lower_bound, inst.memory_lower_bound() * (1 - 1e-9)) << seed;
    EXPECT_GE(r.makespan, r.lower_bound * (1 - 1e-9)) << seed;
    // The clamped schedule has no proven factor.
    EXPECT_EQ(r.guarantee, 0.0) << seed;
  }
}

TEST(LudwigTiwari, ThrowsOnProvablyInfeasibleFootprints) {
  Instance inst = make_instance(Family::kAmdahl, 2, 4, 1);
  inst.set_memory_capacity(1.0);
  inst.set_job_memory({5.0, 0.5});  // job 0 needs 5 machines, only 4 exist
  EXPECT_THROW(lt_row(inst), std::invalid_argument);
  EXPECT_THROW(ludwig_tiwari_schedule(inst), std::invalid_argument);
}

TEST(Baselines, LtBeatsNaiveOnParallelWork) {
  // Highly parallel jobs on many machines: LT exploits moldability, the
  // sequential baseline cannot.
  const Instance inst = make_instance(Family::kPowerLaw, 4, 1024, 11);
  const double lt = ludwig_tiwari_schedule(inst).schedule.makespan();
  const double seq = sequential_schedule(inst).schedule.makespan();
  EXPECT_LT(lt, seq);
}

}  // namespace
}  // namespace moldable::core
