// Runs vanilla-universe jobs on the personal pool.
//
// Bridges the Schedd queue to the Condor machinery: feeds idle vanilla jobs
// to the Negotiator, and for each match spawns a Shadow that claims the
// slot, activates the job, and reports completion / eviction (with
// checkpoint) back into the queue. The runner's ShadowMonitor probes each
// execute host once per poll interval for all of its Shadows there. With
// GlideIn startds in the pool this is exactly Fig. 2 of the paper.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "condorg/condor/collector.h"
#include "condorg/condor/negotiator.h"
#include "condorg/condor/shadow.h"
#include "condorg/condor/shadow_monitor.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/det.h"
#include "condorg/sim/network.h"

namespace condorg::core {

struct VanillaRunnerOptions {
  condor::NegotiatorOptions negotiator;
  condor::ShadowOptions shadow;
};

class VanillaRunner {
 public:
  /// Runs on the submit host, next to the user's Schedd.
  CONDORG_HOST_LOCAL("user");

  VanillaRunner(Schedd& schedd, sim::Network& network,
                condor::Collector& collector,
                VanillaRunnerOptions options = {});
  ~VanillaRunner();

  VanillaRunner(const VanillaRunner&) = delete;
  VanillaRunner& operator=(const VanillaRunner&) = delete;

  /// Start negotiation cycles.
  void start();

  condor::Negotiator& negotiator() { return *negotiator_; }

 private:
  std::vector<condor::IdleJob> idle_jobs() const;
  void on_match(const condor::Match& match);

  Schedd& schedd_;
  sim::Network& network_;
  sim::Host& host_;
  VanillaRunnerOptions options_;
  std::unique_ptr<condor::Negotiator> negotiator_;
  condor::ShadowMonitor monitor_;  // outlives every Shadow below
  // det-local(shadows_): touched only from this host's own match and
  // shadow-outcome events; each Shadow lives on this host too.
  std::map<std::uint64_t, std::unique_ptr<condor::Shadow>> shadows_;
  std::uint64_t claim_counter_ = 0;
  int crash_listener_ = 0;
};

}  // namespace condorg::core
