// The Condor-G GridManager (§4.2 and Fig. 1).
//
// A per-user daemon on the submit machine that executes grid-universe jobs
// on remote GRAM resources:
//   * drives exactly-once submission (persisted sequence numbers re-driven
//     across submit-machine crashes),
//   * receives JobManager status callbacks and, as a backstop, probes each
//     site once per interval for every contact it holds there,
//   * runs the §4.2 ladder on that site probe: a contact the Gatekeeper
//     reports MISSING lost only its JobManager, which is restarted (F1); a
//     silent Gatekeeper is a front-end crash or a partition, which look the
//     same from here (F2/F4), so the site is probed again until it answers;
//     a Gatekeeper that refuses (credential, authorization) is up, so the
//     jobs it was asked about are held with its reason (§4.3),
//   * resubmits failed jobs (up to the job's max_attempts, then hold), and
//   * after a local crash (F3), re-drives every non-terminal job from the
//     Schedd's persistent queue and re-sends the GASS address to surviving
//     JobManagers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "condorg/core/schedd.h"
#include "condorg/gass/file_service.h"
#include "condorg/gram/client.h"
#include "condorg/sim/network.h"
#include "condorg/sim/probe_loop.h"

namespace condorg::core {

/// Where should this job go? Implemented by brokers (static list, MDS
/// matchmaking, flood); consulted per submission attempt. The callback may
/// fire asynchronously (MDS queries are remote).
using SiteChooser = std::function<void(
    const Job& job,
    std::function<void(std::optional<sim::Address> gatekeeper)> done)>;

struct GridManagerOptions {
  double probe_interval = 120.0;  // per-site liveness probe cadence
  /// Queued-job migration (§4.4: "Monitoring of actual queuing and
  /// execution times allows for ... migrat[ing] queued jobs"): a job stuck
  /// PENDING at its site longer than this is cancelled and re-brokered.
  /// <= 0 disables (the paper's baseline behaviour).
  double max_pending_seconds = 0.0;
  /// Cap on jobs submitted-to-sites at once (Condor-G's
  /// GRIDMANAGER_MAX_SUBMITTED_JOBS); 0 = unlimited.
  std::size_t max_submitted_jobs = 0;
  /// Per-site submission pipeline depth: at most this many of the user's
  /// jobs may be "in the pipeline" at one site — an issued submit_with_seq
  /// without an ACTIVE sighting yet (in-flight request, or queued/staging
  /// remotely). Jobs beyond the cap wait Idle in per-site ready queues and
  /// are pumped in deterministic order (site name, then job id) as slots
  /// free up, instead of all piling onto the site's front-end at once
  /// (the paper's §6 one-JobManager-per-job scalability limit). 0 removes
  /// the cap (submission is still pipelined/event-driven).
  std::size_t max_pending_per_site = 32;
  /// Bytes of literal executable content synthesized into the GASS store
  /// per distinct executable name (regenerated deterministically from the
  /// name, so crash recovery can re-create it without persisting content).
  /// 0 keeps the tiny marker string of the original model. Benches raise
  /// this to make redundant staging cost real bytes.
  std::uint64_t staged_content_bytes = 0;
  gram::GramClientOptions gram;
};

class GridManager {
 public:
  /// Submit-host daemon (one per user, co-located with the Schedd).
  CONDORG_HOST_LOCAL("user");

  GridManager(Schedd& schedd, sim::Network& network, std::string user,
              SiteChooser chooser, GridManagerOptions options = {});
  ~GridManager();

  GridManager(const GridManager&) = delete;
  GridManager& operator=(const GridManager&) = delete;

  /// Begin managing the queue (and re-arm on every host reboot).
  void start();

  /// The GASS server through which executables are staged out and job
  /// output is staged back (embedded in the GridManager per Fig. 1).
  gass::FileService& gass() { return gass_; }
  sim::Address gass_address() const { return gass_.address(); }

  /// Set/replace the user's proxy credential for all GRAM traffic.
  void set_credential_text(const std::string& serialized);
  const std::string& credential_text() const {
    return gram_.credential_text();
  }

  /// Re-forward the (refreshed) credential to every active JobManager
  /// (§4.3: "it also needs to re-forward the refreshed proxy to the remote
  /// GRAM server").
  void reforward_credential();

  gram::GramClient& gram() { return gram_; }
  const gram::GramClient& gram() const { return gram_; }
  Schedd& schedd() { return schedd_; }
  const Schedd& schedd() const { return schedd_; }

  /// Invariant audit hook: queue-count conservation between the Schedd's
  /// view (Running grid jobs) and this daemon's contact tracking, plus
  /// bookkeeping-set sanity. Appends one line per violation.
  void audit(std::vector<std::string>& out) const;

  // --- statistics for benches ---
  std::uint64_t submissions() const { return submissions_; }
  std::uint64_t resubmissions() const { return resubmissions_; }
  std::uint64_t jobmanager_restarts() const { return jm_restarts_; }
  /// Site probes sent (one gram.status_all each).
  std::uint64_t probes_sent() const { return probe_.probes_sent(); }
  /// Jobs currently counted against `site`'s pipeline cap.
  std::size_t pipeline_depth(const std::string& site) const;
  /// Jobs under the PENDING-at-site watch (bounded: entries are erased when
  /// the job goes ACTIVE, terminal, or is migrated).
  std::size_t pending_watch_size() const { return pending_since_->size(); }

 private:
  /// A content-addressed staged executable: one GASS store entry per
  /// distinct executable name, shared by every job that runs it.
  struct Artifact {
    std::string path;          // "exe/cas/<checksum>"
    std::uint64_t checksum = 0;
    std::uint64_t declared_size = 0;
  };

  void tick();
  void drive_idle_jobs();
  /// Route a newly idle job into its site's ready queue: a job holding a
  /// persisted seq goes back to the site that seq was sent to, a fixed-site
  /// job to its site, and only a fresh job consults the site chooser.
  void enqueue_idle(std::uint64_t job_id);
  /// Issue submissions from a site's ready queue up to the pipeline cap.
  /// Re-entrant calls (a completion callback freeing a slot mid-pump) are
  /// deferred and drained by the outermost call.
  void pump_site(const std::string& site);
  void pump_all();
  void do_pump(const std::string& site);
  void begin_pipeline(std::uint64_t job_id, const std::string& site);
  /// Release a job's pipeline slot (idempotent) and refill its site.
  void end_pipeline(std::uint64_t job_id);
  /// Tick-time backstop: drop pipeline entries whose job no longer needs a
  /// slot (held/removed with no callback ever arriving).
  void prune_pipeline();
  void set_depth_gauge(const std::string& site, std::size_t depth);
  /// Ensure the job's executable is staged content-addressed; memoized per
  /// executable name.
  const Artifact& stage_artifact(const Job& job);
  std::string make_exe_content(const std::string& name) const;
  /// Resume watching a released job that still has a live site contact.
  void reattach(const Job& job);
  /// The only code that sends a job to a gatekeeper. A job that is no
  /// longer Idle is skipped and gives up its pipeline slot.
  void submit_to(std::uint64_t job_id, const sim::Address& gatekeeper);
  /// The site probe's filter: a job stays watched at `site`, and the
  /// probe asks about its contact, while the contact is there and the job
  /// is neither held nor terminal.
  std::optional<std::string> probe_contact(const std::string& site,
                                           std::uint64_t job_id);
  /// One site probe: a gram.status_all for `contacts`, those of `jobs`.
  void probe_site(const std::string& site, std::vector<std::uint64_t> jobs,
                  std::vector<std::string> contacts,
                  sim::ProbeLoop::Answered answered);
  /// The §4.2 ladder on a site probe's reply.
  void on_site_report(
      const std::string& site, const std::vector<std::uint64_t>& jobs,
      const std::vector<std::string>& contacts,
      const gram::SiteReply<gram::GramClient::SiteReport>& report);
  /// F1: restart a MISSING JobManager, unless its restart is in flight.
  void restart_jobmanager(std::uint64_t job_id, const std::string& contact);
  /// Send the GASS address to `contact` if a reboot left it owed (F3).
  /// Returns whether it was owed.
  bool resend_gass_if_owed(const std::string& contact);
  void dispatch(const sim::Message& message);
  void on_gram_callback(const sim::Message& message);
  void handle_remote_state(std::uint64_t job_id, const std::string& state,
                           const std::string& why);
  void recover_after_boot();
  gram::GramJobSpec spec_for(const Job& job);
  sim::Address callback_address() const;
  /// Registry counter scoped to this daemon's user.
  void count(std::string_view name);
  /// Recovery bracketing for the trace: note_degraded opens (at most once
  /// per outage) when a site probe loses the JobManager or the site, or the
  /// submit machine reboots; note_recovered closes it, emits the paired
  /// trace event, and feeds the recovery-latency histogram.
  void note_degraded(std::uint64_t job_id, std::string_view why);
  void note_recovered(std::uint64_t job_id, std::string_view how);

  Schedd& schedd_;
  sim::Host& host_;
  sim::Network& network_;
  std::string user_;
  SiteChooser chooser_;
  GridManagerOptions options_;
  gass::FileService gass_;
  gram::GramClient gram_;
  bool started_ = false;
  int boot_id_ = 0;
  // jobs with an in-flight submit
  det::HostLocal<std::set<std::uint64_t>> submitting_;
  det::HostLocal<std::map<std::string, std::uint64_t>> contact_to_job_;
  /// Per-site liveness watch: jobs whose contact is at a site, one
  /// gram.status_all per site per probe_interval (kRecoverRetry while the
  /// site is silent); a job whose contact moved on is dropped by that
  /// site's next probe.
  sim::ProbeLoop probe_;
  // contacts whose JobManager restart is in flight
  det::HostLocal<std::set<std::string>> restarting_;
  // contacts a submit-host reboot left owed the GASS address (F3)
  det::HostLocal<std::set<std::string>> gass_owed_;
  // queued-at-site watch
  det::HostLocal<std::map<std::uint64_t, double>> pending_since_;
  // cancel-for-migration in flight
  det::HostLocal<std::set<std::uint64_t>> migrating_;
  // open recovery windows
  det::HostLocal<std::map<std::uint64_t, double>> degraded_since_;

  // --- pipelined submission state ---
  /// Idle jobs routed to a site, awaiting a pipeline slot (job-id order is
  /// preserved: jobs enter in id order and are popped front-first).
  det::HostLocal<std::map<std::string, std::deque<std::uint64_t>>>
      site_ready_;
  /// Jobs in some ready queue or awaiting a chooser verdict.
  det::HostLocal<std::set<std::uint64_t>> queued_;
  /// Jobs holding a pipeline slot, and at which site.
  det::HostLocal<std::map<std::uint64_t, std::string>> pipeline_site_of_;
  /// Per-site slot counts (== per-site cardinality of pipeline_site_of_,
  /// cross-checked in audit()).
  det::HostLocal<std::map<std::string, std::size_t>> site_pipeline_;
  bool pump_in_progress_ = false;
  det::HostLocal<std::set<std::string>> repump_;
  /// Content-addressed staging memo: executable name -> staged artifact.
  det::HostLocal<std::map<std::string, Artifact>> artifacts_;
  /// Cached per-site depth gauges (registry references are stable;
  /// det-local(depth_gauges_): written only from this daemon's events).
  std::map<std::string, util::Gauge*> depth_gauges_;

  std::uint64_t submissions_ = 0;
  std::uint64_t resubmissions_ = 0;
  std::uint64_t jm_restarts_ = 0;
  std::uint64_t queued_migrations_ = 0;

 public:
  std::uint64_t queued_migrations() const { return queued_migrations_; }

 private:
  void maybe_migrate_pending(std::uint64_t job_id);
};

}  // namespace condorg::core
