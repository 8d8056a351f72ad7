// Batch-queue simulation: the HPC scenario that motivates moldable
// scheduling in the paper's introduction.
//
// Jobs arrive over time into a queue; every time the machine drains, the
// scheduler takes the current queue as a moldable instance and plans the
// next batch with the (3/2+eps) algorithm. We compare against a rigid
// policy (every job uses the fixed allotment a user would request — here
// its work-efficient sweet spot) and report cumulative makespan and
// utilization over a day of synthetic load.
#include <iostream>
#include <vector>

#include "src/core/scheduler.hpp"
#include "src/jobs/generators.hpp"
#include "src/sched/list_scheduler.hpp"
#include "src/sched/stats.hpp"
#include "src/sched/validator.hpp"
#include "src/util/prng.hpp"
#include "src/util/table.hpp"

namespace {

using namespace moldable;

struct PolicyTotals {
  double finish = 0;        // cumulative completion time
  double busy_area = 0;     // total processor-time used
};

}  // namespace

int main() {
  // A *contended* machine: many jobs per batch relative to m. This is the
  // regime where allotment choice matters — greedy width requests inflate
  // total work (monotone work functions!) and serialize the queue, while
  // the moldable scheduler widens jobs only to fill otherwise-idle
  // processors.
  const procs_t m = 64;
  const std::size_t batches = 8;
  const std::size_t jobs_per_batch = 96;
  util::Prng rng(20240612);

  std::cout << "=== batch simulation: m = " << m << ", " << batches << " batches of "
            << jobs_per_batch << " jobs ===\n\n";

  PolicyTotals moldable_policy, rigid_policy;
  util::Table t({"batch", "moldable makespan", "rigid makespan", "moldable util %",
                 "rigid util %"});

  for (std::size_t b = 0; b < batches; ++b) {
    const jobs::Instance inst =
        jobs::make_instance(jobs::Family::kMixed, jobs_per_batch, m, rng.next_u64());

    // Moldable policy: the paper's algorithm chooses allotments globally.
    const core::ScheduleResult r =
        core::schedule_moldable(inst, 0.2, core::Algorithm::kBoundedLinear);
    sched::validate_or_throw(r.schedule, inst);
    const sched::ScheduleStats ms_stats = sched::compute_stats(r.schedule, inst);

    // Rigid policy: each user requests the allotment minimizing their own
    // completion time ignoring contention (gamma of their fastest time,
    // i.e. the full plateau) — then jobs are list scheduled.
    std::vector<procs_t> rigid_alloc;
    for (const jobs::Job& job : inst.jobs()) {
      // Smallest count achieving within 10% of the job's best time.
      const auto g = job.gamma(job.tmin() * 1.1);
      rigid_alloc.push_back(g.value_or(inst.machines()));
    }
    const sched::Schedule rigid = sched::list_schedule(inst, rigid_alloc);
    sched::validate_or_throw(rigid, inst);
    const sched::ScheduleStats rg_stats = sched::compute_stats(rigid, inst);

    moldable_policy.finish += ms_stats.makespan;
    moldable_policy.busy_area += ms_stats.total_work;
    rigid_policy.finish += rg_stats.makespan;
    rigid_policy.busy_area += rg_stats.total_work;

    t.add_row({std::to_string(b), util::fmt(ms_stats.makespan, 5),
               util::fmt(rg_stats.makespan, 5),
               util::fmt(ms_stats.utilization * 100, 3),
               util::fmt(rg_stats.utilization * 100, 3)});
  }
  t.print(std::cout);

  const double speedup = rigid_policy.finish / moldable_policy.finish;
  std::cout << "\ncumulative day length: moldable " << util::fmt(moldable_policy.finish, 6)
            << " vs rigid " << util::fmt(rigid_policy.finish, 6) << "  (speedup "
            << util::fmt(speedup, 3) << "x)\n"
            << "moldable scheduling trades per-job speed for global throughput:\n"
            << "it widens jobs only when the machine would otherwise idle.\n";
  return 0;
}
