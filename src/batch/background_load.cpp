#include "condorg/batch/background_load.h"

#include <string>

namespace condorg::batch {
namespace {
constexpr const char* kOwnerPrefix = "local";
constexpr int kOwnerCount = 5;  // local jobs rotate among this many accounts
}  // namespace

BackgroundLoad::BackgroundLoad(sim::Simulation& sim,
                               LocalScheduler& scheduler,
                               BackgroundLoadOptions options, util::Rng rng)
    : sim_(sim), scheduler_(scheduler), options_(options), rng_(rng) {}

void BackgroundLoad::start() {
  if (running_) return;
  running_ = true;
  next_arrival();
}

void BackgroundLoad::next_arrival() {
  if (!running_) return;
  const double gap = rng_.exponential(options_.mean_interarrival_seconds);
  sim_.schedule_in(gap, [this] {
    if (!running_) return;
    JobRequest request;
    request.owner =
        kOwnerPrefix +
        std::to_string(rng_.below(static_cast<std::uint64_t>(kOwnerCount)));
    request.runtime_seconds =
        rng_.heavy_tailed(options_.mean_runtime_seconds);
    request.cpus = static_cast<int>(
        rng_.range(1, options_.max_cpus_per_job));
    scheduler_.submit(std::move(request));
    ++submitted_;
    next_arrival();
  });
}

}  // namespace condorg::batch
