#include <gtest/gtest.h>

#include "condorg/batch/background_load.h"
#include "condorg/batch/fair_share_scheduler.h"
#include "condorg/batch/fifo_scheduler.h"
#include "condorg/sim/world.h"

namespace cb = condorg::batch;
namespace cs = condorg::sim;

namespace {

cb::JobRequest job(const std::string& owner, double runtime, int cpus = 1,
                   double walltime = 1e18) {
  cb::JobRequest r;
  r.owner = owner;
  r.runtime_seconds = runtime;
  r.cpus = cpus;
  r.walltime_limit_seconds = walltime;
  return r;
}

}  // namespace

// ---------- base mechanics (via FifoScheduler, no backfill) ----------

TEST(LocalScheduler, RunsJobToCompletion) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 4, /*backfill=*/false);
  const auto id = pbs.submit(job("alice", 100.0));
  EXPECT_EQ(pbs.status(id)->state, cb::JobState::kRunning);
  EXPECT_EQ(pbs.busy_cpus(), 1);
  sim.run();
  EXPECT_EQ(pbs.status(id)->state, cb::JobState::kCompleted);
  EXPECT_DOUBLE_EQ(pbs.status(id)->end_time, 100.0);
  EXPECT_EQ(pbs.busy_cpus(), 0);
  EXPECT_DOUBLE_EQ(pbs.cpu_seconds_delivered(), 100.0);
}

TEST(LocalScheduler, QueuesWhenFull) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 2, false);
  pbs.submit(job("a", 100.0, 2));
  const auto waiting = pbs.submit(job("b", 50.0, 1));
  EXPECT_EQ(pbs.status(waiting)->state, cb::JobState::kQueued);
  EXPECT_EQ(pbs.queue_length(), 1u);
  sim.run();
  EXPECT_EQ(pbs.status(waiting)->state, cb::JobState::kCompleted);
  // b waited for a: started at t=100.
  EXPECT_DOUBLE_EQ(pbs.status(waiting)->start_time, 100.0);
  EXPECT_DOUBLE_EQ(pbs.status(waiting)->queue_wait(), 100.0);
}

TEST(LocalScheduler, WalltimeLimitKillsJob) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  const auto id = pbs.submit(job("a", 1000.0, 1, /*walltime=*/300.0));
  sim.run();
  EXPECT_EQ(pbs.status(id)->state, cb::JobState::kWalltimeExceeded);
  EXPECT_DOUBLE_EQ(pbs.status(id)->end_time, 300.0);
  // Killed jobs deliver no useful CPU-seconds.
  EXPECT_DOUBLE_EQ(pbs.cpu_seconds_delivered(), 0.0);
}

TEST(LocalScheduler, CancelQueuedAndRunning) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  const auto running = pbs.submit(job("a", 100.0));
  const auto queued = pbs.submit(job("b", 100.0));
  EXPECT_TRUE(pbs.cancel(queued));
  EXPECT_EQ(pbs.status(queued)->state, cb::JobState::kCancelled);
  EXPECT_TRUE(pbs.cancel(running));
  EXPECT_EQ(pbs.status(running)->state, cb::JobState::kCancelled);
  EXPECT_EQ(pbs.busy_cpus(), 0);
  EXPECT_FALSE(pbs.cancel(running));         // already terminal
  EXPECT_FALSE(pbs.cancel(99999));           // unknown
  sim.run();
  // The cancelled running job must not "complete" later.
  EXPECT_EQ(pbs.status(running)->state, cb::JobState::kCancelled);
}

TEST(LocalScheduler, CompletionHandlersFire) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  std::vector<cb::JobState> states;
  pbs.add_completion_handler(
      [&](const cb::JobRecord& r) { states.push_back(r.state); });
  pbs.submit(job("a", 10.0));
  const auto cancelled = pbs.submit(job("b", 10.0));
  pbs.cancel(cancelled);
  sim.run();
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states[0], cb::JobState::kCancelled);
  EXPECT_EQ(states[1], cb::JobState::kCompleted);
  EXPECT_EQ(pbs.history().size(), 2u);
}

TEST(LocalScheduler, UnknownIdStatus) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  EXPECT_FALSE(pbs.status(42).has_value());
}

// ---------- per-job one-shot handlers ----------

TEST(LocalScheduler, StartHandlerFiresOnceWithStartTime) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  pbs.submit(job("a", 40.0));
  const auto queued = pbs.submit(job("b", 10.0));
  std::vector<double> starts;
  const auto token = pbs.add_start_handler(
      queued, [&](const cb::JobRecord& r) {
        EXPECT_EQ(r.state, cb::JobState::kRunning);
        starts.push_back(r.start_time);
      });
  EXPECT_NE(token, 0u);
  sim.run();
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_DOUBLE_EQ(starts[0], 40.0);
  pbs.remove_job_handler(token);  // spent: a no-op
}

TEST(LocalScheduler, StartHandlerForRunningJobFiresAtOnce) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  const auto running = pbs.submit(job("a", 40.0));
  int fired = 0;
  EXPECT_EQ(pbs.add_start_handler(running,
                                  [&](const cb::JobRecord&) { ++fired; }),
            0u);
  EXPECT_EQ(fired, 1);
  sim.run();
  EXPECT_EQ(fired, 1);
  // Ended and unknown jobs never start: nothing fires, nothing registers.
  EXPECT_EQ(pbs.add_start_handler(running,
                                  [&](const cb::JobRecord&) { ++fired; }),
            0u);
  EXPECT_EQ(pbs.add_start_handler(99, [&](const cb::JobRecord&) { ++fired; }),
            0u);
  EXPECT_EQ(fired, 1);
}

TEST(LocalScheduler, StartHandlerDroppedWhenCancelledWhileQueued) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  pbs.submit(job("a", 40.0));
  const auto queued = pbs.submit(job("b", 10.0));
  int started = 0;
  std::vector<cb::JobState> ended;
  pbs.add_start_handler(queued, [&](const cb::JobRecord&) { ++started; });
  pbs.add_job_handler(queued,
                      [&](const cb::JobRecord& r) { ended.push_back(r.state); });
  EXPECT_TRUE(pbs.cancel(queued));
  sim.run();
  EXPECT_EQ(started, 0);
  ASSERT_EQ(ended.size(), 1u);
  EXPECT_EQ(ended[0], cb::JobState::kCancelled);
}

TEST(LocalScheduler, RemovedHandlersNeverFire) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  pbs.submit(job("a", 40.0));
  const auto queued = pbs.submit(job("b", 10.0));
  int fired = 0;
  const auto on_start =
      pbs.add_start_handler(queued, [&](const cb::JobRecord&) { ++fired; });
  const auto on_end =
      pbs.add_job_handler(queued, [&](const cb::JobRecord&) { ++fired; });
  int kept = 0;
  pbs.add_job_handler(queued, [&](const cb::JobRecord&) { ++kept; });
  EXPECT_NE(on_start, on_end);  // one token space
  pbs.remove_job_handler(on_start);
  pbs.remove_job_handler(on_end);
  pbs.remove_job_handler(on_end);  // twice: a no-op
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(kept, 1);
  EXPECT_EQ(pbs.status(queued)->state, cb::JobState::kCompleted);
}

TEST(LocalScheduler, JobHandlerOnEndedJobFiresAtOnceAndReturnsZero) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 1, false);
  const auto id = pbs.submit(job("a", 10.0));
  sim.run();
  // The caller's handler marks itself consumed by zeroing its token; the
  // returned token must not overwrite that.
  std::uint64_t token = 1;
  token = pbs.add_job_handler(id, [&](const cb::JobRecord& r) {
    EXPECT_EQ(r.state, cb::JobState::kCompleted);
    token = 0;
  });
  EXPECT_EQ(token, 0u);
}

// ---------- FIFO + backfill ----------

TEST(FifoScheduler, NoBackfillBlocksBehindWideJob) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 4, /*backfill=*/false);
  pbs.submit(job("a", 100.0, 3));        // running, 1 cpu free
  pbs.submit(job("b", 10.0, 4));         // head of queue, needs 4
  const auto narrow = pbs.submit(job("c", 10.0, 1));  // would fit, but FIFO
  EXPECT_EQ(pbs.status(narrow)->state, cb::JobState::kQueued);
  sim.run_until(50.0);
  EXPECT_EQ(pbs.status(narrow)->state, cb::JobState::kQueued);
}

TEST(FifoScheduler, BackfillStartsNarrowJob) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 4, /*backfill=*/true);
  pbs.submit(job("a", 100.0, 3));
  pbs.submit(job("b", 10.0, 4));
  const auto narrow = pbs.submit(job("c", 10.0, 1));
  EXPECT_EQ(pbs.status(narrow)->state, cb::JobState::kRunning);
  sim.run();
  EXPECT_EQ(pbs.status(narrow)->state, cb::JobState::kCompleted);
}

TEST(FifoScheduler, BackfillStartsNarrowJobWhenOneCpuFrees) {
  cs::Simulation sim;
  cb::FifoScheduler pbs(sim, "pbs", 4, /*backfill=*/true);
  pbs.submit(job("a", 50.0, 1));
  pbs.submit(job("b", 200.0, 3));  // the cluster is full
  const auto wide = pbs.submit(job("c", 10.0, 4));
  const auto narrow = pbs.submit(job("d", 10.0, 1));
  EXPECT_EQ(pbs.status(narrow)->state, cb::JobState::kQueued);
  sim.run_until(55.0);
  // a's CPU freed at 50: the head still does not fit, the 1-CPU job does.
  EXPECT_EQ(pbs.status(wide)->state, cb::JobState::kQueued);
  EXPECT_EQ(pbs.status(narrow)->state, cb::JobState::kRunning);
  EXPECT_DOUBLE_EQ(pbs.status(narrow)->start_time, 50.0);
  sim.run();
  EXPECT_DOUBLE_EQ(pbs.status(wide)->start_time, 200.0);
  EXPECT_EQ(pbs.queue_length(), 0u);
}

// ---------- fair share ----------

TEST(FairShareScheduler, AlternatesBetweenOwners) {
  cs::Simulation sim;
  cb::FairShareScheduler lsf(sim, "lsf", 1);
  // alice floods the queue first; bob submits one job after.
  std::vector<std::uint64_t> alice_ids;
  for (int i = 0; i < 3; ++i) alice_ids.push_back(lsf.submit(job("alice", 100.0)));
  const auto bob = lsf.submit(job("bob", 100.0));
  sim.run();
  // bob must not wait behind all three alice jobs: after alice's first job
  // finishes she has 100 cpu-seconds of usage, bob has 0, so bob goes next.
  EXPECT_DOUBLE_EQ(lsf.status(bob)->start_time, 100.0);
  EXPECT_GT(lsf.status(alice_ids[2])->start_time,
            lsf.status(bob)->start_time);
}

TEST(FairShareScheduler, SkipsTooWideJobs) {
  cs::Simulation sim;
  cb::FairShareScheduler lsf(sim, "lsf", 2);
  lsf.submit(job("a", 50.0, 2));
  const auto wide = lsf.submit(job("b", 10.0, 4));  // never fits
  const auto fits = lsf.submit(job("c", 10.0, 1));
  sim.run_until(200.0);
  EXPECT_EQ(lsf.status(wide)->state, cb::JobState::kQueued);
  EXPECT_EQ(lsf.status(fits)->state, cb::JobState::kCompleted);
}

// ---------- background load ----------

TEST(BackgroundLoad, GeneratesFluctuatingLoad) {
  cs::Simulation sim(77);
  cb::FifoScheduler pbs(sim, "pbs", 16);
  cb::BackgroundLoadOptions options;
  options.mean_interarrival_seconds = 60.0;
  options.mean_runtime_seconds = 600.0;
  cb::BackgroundLoad load(sim, pbs, options, sim.make_rng("bg"));
  load.start();
  sim.run_until(4 * 3600.0);
  load.stop();
  EXPECT_GT(load.jobs_submitted(), 100u);
  // The site actually did work.
  EXPECT_GT(pbs.cpu_seconds_delivered(), 0.0);
  sim.run();  // drain
  EXPECT_EQ(pbs.busy_cpus(), 0);
}

TEST(BackgroundLoad, StopHaltsArrivals) {
  cs::Simulation sim(78);
  cb::FifoScheduler pbs(sim, "pbs", 4);
  cb::BackgroundLoad load(sim, pbs, {}, sim.make_rng("bg"));
  load.start();
  sim.run_until(3600.0);
  const auto count = load.jobs_submitted();
  load.stop();
  sim.run_until(2 * 3600.0);
  EXPECT_EQ(load.jobs_submitted(), count);
}
