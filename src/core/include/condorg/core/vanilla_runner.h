// Runs vanilla-universe jobs on the personal pool.
//
// Bridges the Schedd queue to the Condor machinery: keeps one job ad in the
// colocated Collector for each Idle vanilla job without a Shadow, and for
// each match the Negotiator makes spawns a Shadow that claims the slot,
// activates the job, and reports completion / eviction (with checkpoint)
// back into the queue. The queue listener only records which jobs changed;
// the negotiator's sync hook builds or removes their ads at the top of each
// cycle. The runner's ShadowMonitor probes each execute host once per poll
// interval for all of its Shadows there. With GlideIn startds in the pool
// this is exactly Fig. 2 of the paper.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "condorg/condor/collector.h"
#include "condorg/condor/pool_negotiator.h"
#include "condorg/condor/shadow.h"
#include "condorg/condor/shadow_monitor.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/det.h"
#include "condorg/sim/network.h"

namespace condorg::core {

struct VanillaRunnerOptions {
  condor::PoolNegotiatorOptions negotiator;
  condor::ShadowOptions shadow;
};

class VanillaRunner {
 public:
  /// Runs on the submit host, next to the user's Schedd.
  CONDORG_HOST_LOCAL("user");

  /// Every job ad carries `user` as its User, so the negotiator's
  /// fair-share order is one user's and the ads match in job-id order.
  VanillaRunner(Schedd& schedd, sim::Network& network,
                condor::Collector& collector, std::string user,
                VanillaRunnerOptions options = {});
  ~VanillaRunner();

  VanillaRunner(const VanillaRunner&) = delete;
  VanillaRunner& operator=(const VanillaRunner&) = delete;

  /// Start negotiation cycles.
  void start();

  condor::Negotiator& negotiator() { return *negotiator_; }

 private:
  /// The negotiator's sync hook: bring the changed jobs' ads up to date.
  void sync_job_ads();
  void on_match(const condor::Match& match);
  /// The Shadow for `job_id` ended; the job may need its ad again.
  void drop_shadow(std::uint64_t job_id);

  Schedd& schedd_;
  sim::Host& host_;
  condor::Collector& collector_;
  std::string user_;
  std::unique_ptr<condor::Negotiator> negotiator_;
  condor::ShadowMonitor monitor_;  // outlives every Shadow below
  // det-local(shadows_): touched only from this host's own match and
  // shadow-outcome events; each Shadow lives on this host too.
  std::map<std::uint64_t, std::unique_ptr<condor::Shadow>> shadows_;
  // det-local(changed_): written by the queue listener and the shadow
  // callbacks, read by the sync hook, all on this host.
  std::set<std::uint64_t> changed_;
  /// Set at construction and by a crash, which empties the Collector: the
  /// next sync rebuilds the ad of every Idle vanilla job.
  bool resync_ = true;
  std::uint64_t claim_counter_ = 0;
  int crash_listener_ = 0;
};

}  // namespace condorg::core
