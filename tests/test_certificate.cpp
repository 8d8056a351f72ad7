// Tests for the NP-membership certificate verifier (Theorem 1's membership
// argument) and certificate extraction from schedules.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/core/baselines.hpp"
#include "src/core/scheduler.hpp"
#include "src/jobs/certificate.hpp"
#include "src/jobs/generators.hpp"
#include "src/jobs/reduction.hpp"

namespace moldable::jobs {
namespace {

TEST(Certificate, AcceptsAchievableDeadline) {
  const Instance inst = make_instance(Family::kAmdahl, 8, 16, 3);
  Certificate cert;
  cert.allotment.assign(8, 2);
  cert.order = {0, 1, 2, 3, 4, 5, 6, 7};
  const CertificateResult loose = verify_certificate(inst, cert, 1e12);
  EXPECT_TRUE(loose.accepted);
  const CertificateResult tight = verify_certificate(inst, cert, loose.makespan);
  EXPECT_TRUE(tight.accepted);  // boundary inclusive
  const CertificateResult fail = verify_certificate(inst, cert, loose.makespan * 0.9);
  EXPECT_FALSE(fail.accepted);
}

TEST(Certificate, ValidatesShape) {
  const Instance inst = make_instance(Family::kAmdahl, 3, 8, 1);
  Certificate cert;
  cert.allotment = {1, 1};  // wrong size
  cert.order = {0, 1, 2};
  EXPECT_THROW(verify_certificate(inst, cert, 10), std::invalid_argument);
  cert.allotment = {1, 1, 9};  // out of range
  EXPECT_THROW(verify_certificate(inst, cert, 10), std::invalid_argument);
  cert.allotment = {1, 1, 1};
  cert.order = {0, 0, 2};  // not a permutation
  EXPECT_THROW(verify_certificate(inst, cert, 10), std::invalid_argument);
}

TEST(Certificate, RejectsMemoryInfeasibleAllotment) {
  Instance inst = make_instance(Family::kAmdahl, 3, 8, 1);
  inst.set_memory_capacity(4.0);
  inst.set_job_memory({10.0, 1.0, 1.0});  // job 0 needs ceil(10/4) = 3 machines
  Certificate cert;
  cert.allotment = {2, 1, 1};  // job 0 under its minimum feasible allotment
  cert.order = {0, 1, 2};
  EXPECT_THROW(verify_certificate(inst, cert, 1e12), std::invalid_argument);
  cert.allotment = {3, 1, 1};
  const CertificateResult ok = verify_certificate(inst, cert, 1e12);
  EXPECT_TRUE(ok.accepted);
}

TEST(Certificate, RoundTripFromSchedulerOutput) {
  // Extract a certificate from an approximate schedule; re-verification via
  // list scheduling must stay within the same deadline the schedule proves.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Instance inst = make_instance(Family::kMixed, 24, 96, seed);
    const core::ScheduleResult r = core::schedule_moldable(inst, 0.25);
    const Certificate cert = certificate_from_schedule(inst, r.schedule);
    const CertificateResult cr = verify_certificate(inst, cert, r.makespan);
    EXPECT_TRUE(cr.accepted) << "seed=" << seed << ": list scheduling in start order "
                             << "finished at " << cr.makespan << " > " << r.makespan;
  }
}

TEST(Certificate, MemoryTightScheduleRoundTrips) {
  // A memory-aware schedule's certificate re-verifies against the achieved
  // makespan, and the verifier's list schedule respects kmin throughout.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Instance inst = make_instance(Family::kMixed, 10, 16, seed + 1);
    inst.set_memory_capacity(2.0);
    std::vector<double> mem(inst.size());
    for (std::size_t j = 0; j < mem.size(); ++j)
      mem[j] = 0.5 + static_cast<double>((j * 5 + seed) % 8);
    inst.set_job_memory(std::move(mem));
    const core::BaselineResult r = core::ludwig_tiwari_schedule(inst);
    const Certificate cert = certificate_from_schedule(inst, r.schedule);
    const CertificateResult cr =
        verify_certificate(inst, cert, r.schedule.makespan());
    EXPECT_TRUE(cr.accepted) << "seed=" << seed << ": re-verified at "
                             << cr.makespan << " > " << r.schedule.makespan();
  }
}

TEST(Certificate, ReductionYesInstanceCertificate) {
  // The canonical Figure 1 schedule is a poly-size certificate for the
  // reduced instance at d = n*B — exactly Theorem 1's NP membership.
  const FourPartitionInstance fp = make_yes_instance(3, 11);
  const ReductionOutput red = reduce_to_scheduling(fp);
  const core::ScheduleResult r = core::schedule_moldable(red.instance, 0.2);
  // The approximation may exceed d, but its certificate still verifies
  // against its own makespan.
  const Certificate cert = certificate_from_schedule(red.instance, r.schedule);
  const CertificateResult cr = verify_certificate(red.instance, cert, r.makespan);
  EXPECT_TRUE(cr.accepted);
}

}  // namespace
}  // namespace moldable::jobs
