// Background (local-user) load generation.
//
// Grid jobs at a remote site compete with that site's own users. The
// generator submits a Poisson stream of local jobs with heavy-tailed
// runtimes, producing the fluctuating queue depths and free-CPU counts that
// Condor-G's brokering and GlideIn mechanisms are designed around.
#pragma once

#include "condorg/batch/local_scheduler.h"
#include "condorg/sim/simulation.h"
#include "condorg/util/rng.h"

namespace condorg::batch {

struct BackgroundLoadOptions {
  double mean_interarrival_seconds = 120.0;
  double mean_runtime_seconds = 1800.0;
  int max_cpus_per_job = 4;
};

class BackgroundLoad {
 public:
  BackgroundLoad(sim::Simulation& sim, LocalScheduler& scheduler,
                 BackgroundLoadOptions options, util::Rng rng);

  /// Start generating; runs until stop() or end of simulation.
  void start();
  void stop() { running_ = false; }

  std::uint64_t jobs_submitted() const { return submitted_; }

 private:
  void next_arrival();

  sim::Simulation& sim_;
  LocalScheduler& scheduler_;
  BackgroundLoadOptions options_;
  util::Rng rng_;
  bool running_ = false;
  std::uint64_t submitted_ = 0;
};

}  // namespace condorg::batch
