// Globus Gatekeeper (Fig. 1 of the paper).
//
// The site front-end service that authenticates/authorizes GRAM requests
// (GSI + gridmap) and manages the site's JobManagers. Implements the
// resource side of the two-phase commit: submissions carry a (client_id,
// sequence) pair persisted to stable storage, so a retransmitted request —
// sent because the client could not tell whether its request or our
// response was lost — maps to the existing JobManager instead of starting a
// second copy of the job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "condorg/batch/local_scheduler.h"
#include "condorg/gram/jobmanager.h"
#include "condorg/gram/protocol.h"
#include "condorg/gsi/auth.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/util/metrics.h"

namespace condorg::gram {

struct GatekeeperOptions {
  gsi::AuthConfig auth;
  /// Site policy: cap on any job's walltime (the "local policy may also
  /// impose restrictions on the running time of the job" of §5).
  double max_walltime = 1e18;
  /// Two-phase commit dedup. Disabling this models the pre-revision GRAM
  /// protocol (the A1 ablation): retransmitted submissions each start a
  /// fresh job.
  bool dedup_submissions = true;
};

class Gatekeeper {
 public:
  /// Site front-end daemon: owns this site's JobManagers and scratch cache.
  CONDORG_HOST_LOCAL("site");

  Gatekeeper(sim::Host& host, sim::Network& network,
             batch::LocalScheduler& scheduler, GatekeeperOptions options = {});
  ~Gatekeeper();

  Gatekeeper(const Gatekeeper&) = delete;
  Gatekeeper& operator=(const Gatekeeper&) = delete;

  sim::Address address() const { return {host_.name(), kGatekeeperService}; }
  sim::Host& host() { return host_; }
  const sim::Host& host() const { return host_; }
  batch::LocalScheduler& scheduler() { return scheduler_; }
  const GatekeeperOptions& options() const { return options_; }

  /// The JobManager for a contact, if one is currently running.
  JobManager* find_jobmanager(const std::string& contact);

  /// This site's staging cache (scratch space: wiped by a host crash,
  /// rebuilt empty at boot). Never null while the host is up.
  gass::StagingCache* staging_cache() { return staging_cache_.get(); }

  /// Kill one JobManager process (failure type F1) without touching the
  /// host, the local job, or stable storage.
  bool kill_jobmanager(const std::string& contact);

  /// Visit every JobManager this gatekeeper manages, in contact order
  /// (read-only; used by cross-site auditing).
  void for_each_jobmanager(
      const std::function<void(const JobManager&)>& visit) const {
    for (const auto& [contact, jm] : *jobmanagers_) visit(*jm);
  }

  /// Invariant audit hook: audits every live JobManager, checks each is
  /// registered under its own contact, that — with two-phase dedup on — no
  /// client job (callback + tag) is being run by two live JobManagers at
  /// this site at once, and that stable storage holds at most one job
  /// record per (client_id, seq) pair — the exactly-once acceptance
  /// invariant the dedup key exists to enforce. Appends one line per
  /// violation.
  void audit(std::vector<std::string>& out) const;

  std::size_t jobmanager_count() const { return jobmanagers_->size(); }
  std::uint64_t submissions_accepted() const { return accepted_; }
  std::uint64_t duplicate_submissions() const { return duplicates_; }
  std::uint64_t auth_failures() const { return auth_failures_; }
  std::uint64_t jobmanagers_started() const { return jm_started_; }

 private:
  void install();
  void on_message(const sim::Message& message);
  void handle_submit(const sim::Message& message);
  void handle_restart(const sim::Message& message);
  /// gram.status_all: the state of each asked contact's live JobManager,
  /// or MISSING — one answer per site probe instead of a ping per job.
  void handle_status_all(const sim::Message& message);
  std::string new_contact();
  /// Registry counter labelled with this site's name; references are stable
  /// so they are resolved once at construction, off the submit hot path.
  util::Counter& count(const char* name);

  sim::Host& host_;
  sim::Network& network_;
  batch::LocalScheduler& scheduler_;
  GatekeeperOptions options_;
  // CONDORG_MUTATE_DEDUP (read at construction): deliberately skip the
  // duplicate-submission lookup while still claiming dedup is on. Exists
  // only so the explorer's mutation self-test can prove the model checker
  // catches this bug class; never set outside that ctest.
  bool mutate_dedup_ = false;
  det::HostLocal<std::map<std::string, std::unique_ptr<JobManager>>>
      jobmanagers_;
  std::unique_ptr<gass::StagingCache> staging_cache_;
  int boot_id_ = 0;
  int crash_listener_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t auth_failures_ = 0;
  std::uint64_t jm_started_ = 0;
  util::Counter& accepted_counter_;
  util::Counter& duplicates_counter_;
  util::Counter& auth_failures_counter_;
  util::Counter& jm_started_counter_;
  util::Counter& jm_restarted_counter_;
  JobManagerStateCounters jm_state_counters_;
};

}  // namespace condorg::gram
