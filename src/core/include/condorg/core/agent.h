// The Condor-G agent: "a personal desktop agent" (§4.1) assembled from the
// Schedd (persistent queue + user log), the GridManager (GRAM execution),
// the CredentialManager (§4.3), a personal Collector with the VanillaRunner
// and its Negotiator (personal Condor pool; the user's idle vanilla jobs
// are job ads in that Collector), an optional GlideInManager (§5), and a
// pluggable resource broker (§4.4).
//
// "By providing the user with a familiar and reliable single access point
// to all the resources he/she is authorized to use, Condor-G empowers
// end-users to improve the productivity of their computations by providing
// a unified view of dispersed resources."
#pragma once

#include <memory>
#include <string>

#include "condorg/condor/collector.h"
#include "condorg/core/credential_manager.h"
#include "condorg/core/dagman.h"
#include "condorg/core/glidein.h"
#include "condorg/core/gridmanager.h"
#include "condorg/core/schedd.h"
#include "condorg/core/vanilla_runner.h"
#include "condorg/sim/world.h"

namespace condorg::core {

struct AgentOptions {
  std::string user = "user";
  GridManagerOptions gridmanager;
  VanillaRunnerOptions vanilla;
  CredentialManagerOptions credentials;
};

class CondorGAgent {
 public:
  /// Builds the agent on `submit_host` (which must already exist in the
  /// world). The default site chooser refuses brokering — set one with
  /// set_site_chooser() or give jobs a fixed grid_site.
  CondorGAgent(sim::World& world, const std::string& submit_host,
               AgentOptions options = {});

  CondorGAgent(const CondorGAgent&) = delete;
  CondorGAgent& operator=(const CondorGAgent&) = delete;

  /// Replace the resource broker (effective for subsequent submissions).
  void set_site_chooser(SiteChooser chooser) {
    *chooser_ = std::move(chooser);
  }

  /// Enable the GlideIn mechanism; call add_site on the returned manager.
  GlideInManager& enable_glideins(GlideInOptions options);

  /// Start all daemons.
  void start();

  // --- user API (submit / query / cancel / logs, §4.1) ---
  std::uint64_t submit(JobDescription description) {
    return schedd_->submit(std::move(description));
  }
  std::optional<Job> query(std::uint64_t id) const {
    return schedd_->query(id);
  }
  bool remove(std::uint64_t id) { return schedd_->remove(id); }
  bool hold(std::uint64_t id, const std::string& reason) {
    return schedd_->hold(id, reason);
  }
  bool release(std::uint64_t id) { return schedd_->release(id); }
  const UserLog& log() const { return schedd_->log(); }

  /// Run a DAG through this agent's queue. The returned DagMan must be
  /// started and outlives via the caller.
  std::unique_ptr<DagMan> make_dagman(Dag dag, DagManOptions options = {});

  // --- component access ---
  sim::Host& host() { return host_; }
  Schedd& schedd() { return *schedd_; }
  GridManager& gridmanager() { return *gridmanager_; }
  CredentialManager& credentials() { return *credentials_; }
  condor::Collector& collector() { return *collector_; }
  VanillaRunner& vanilla() { return *vanilla_; }
  GlideInManager* glideins() { return glideins_.get(); }

 private:
  sim::World& world_;
  sim::Host& host_;
  std::shared_ptr<SiteChooser> chooser_;
  std::unique_ptr<Schedd> schedd_;
  std::unique_ptr<GridManager> gridmanager_;
  std::unique_ptr<CredentialManager> credentials_;
  std::unique_ptr<condor::Collector> collector_;
  std::unique_ptr<VanillaRunner> vanilla_;
  std::unique_ptr<GlideInManager> glideins_;
};

}  // namespace condorg::core
