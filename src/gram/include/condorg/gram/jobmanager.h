// Globus JobManager (Fig. 1 of the paper).
//
// One JobManager per GRAM job, spawned by the Gatekeeper on the site
// front-end. It stages the executable from the client's GASS server,
// submits to the site's local scheduler, relays status callbacks to the
// GridManager, streams output back on completion, and persists enough state
// that a *new* JobManager can re-attach to the local job after a crash —
// including discovering that the job finished while no JobManager existed.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "condorg/batch/local_scheduler.h"
#include "condorg/gass/client.h"
#include "condorg/gass/staging_cache.h"
#include "condorg/gram/protocol.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/metrics.h"

namespace condorg::gram {

/// Per-site cache of the "jobmanager.state_changes" counters, one per
/// GramJobState. JobManagers are one-per-job and walk each state once, so
/// the Gatekeeper resolves the registry lookups a single time and shares
/// them with every JobManager it spawns (registry references are stable).
struct JobManagerStateCounters {
  std::array<util::Counter*, 6> by_state{};

  static JobManagerStateCounters for_site(util::MetricsRegistry& metrics,
                                          const std::string& site);
  util::Counter* at(GramJobState state) const {
    return by_state[static_cast<std::size_t>(state)];
  }
};

class JobManager {
 public:
  /// Site front-end process, one per GRAM job.
  CONDORG_HOST_LOCAL("site");

  /// Fresh-submission constructor: persists the job record, then waits for
  /// commit (two-phase) or proceeds immediately (`auto_commit`, the
  /// one-phase ablation mode). `staging_cache` (owned by the Gatekeeper,
  /// may be null) serves content-addressed executables (exe_checksum != 0)
  /// without re-transferring per job.
  JobManager(sim::Host& host, sim::Network& network,
             batch::LocalScheduler& scheduler, std::string contact,
             GramJobSpec spec, sim::Address client_callback, bool auto_commit,
             std::string forwarded_credential = "",
             const JobManagerStateCounters* state_counters = nullptr,
             std::string client_id = "", std::uint64_t client_seq = 0,
             gass::StagingCache* staging_cache = nullptr);

  /// Reattach constructor: rebuilds a JobManager for `contact` from the
  /// record on the host's stable storage. Used by the Gatekeeper when asked
  /// to restart a JobManager after a crash.
  JobManager(sim::Host& host, sim::Network& network,
             batch::LocalScheduler& scheduler, std::string contact,
             const JobManagerStateCounters* state_counters = nullptr,
             gass::StagingCache* staging_cache = nullptr);

  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  const std::string& contact() const { return contact_; }
  GramJobState state() const { return state_; }
  const GramJobSpec& spec() const { return spec_; }
  const sim::Address& client_callback() const { return client_callback_; }
  /// The (client_id, seq) pair this submission was accepted under — the
  /// identity the gatekeeper's dedup key protects. Persisted with the
  /// record so the exactly-once audit can detect duplicate acceptances on
  /// stable storage even across JobManager restarts.
  const std::string& client_id() const { return client_id_; }
  std::uint64_t client_seq() const { return client_seq_; }
  bool committed() const { return committed_; }
  std::uint64_t local_job_id() const { return local_job_id_; }
  /// The delegated proxy this JobManager's GASS traffic runs on (§4.3).
  const std::string& forwarded_credential() const {
    return forwarded_credential_;
  }
  sim::Address address() const {
    return {host_.name(), jobmanager_service(contact_)};
  }

  /// Invariant audit hook: the in-memory state machine must agree with the
  /// stable-storage record it claims to have persisted (commit-before-run,
  /// a local job behind every PENDING/ACTIVE state). Appends one line per
  /// violation; no-op for a dead process, whose record is the only truth.
  void audit(std::vector<std::string>& out) const;

  /// Simulate a crash of just this JobManager process (failure type F1):
  /// its service handler disappears but the host, the Gatekeeper, and the
  /// local job live on. The stable-storage record remains for reattach.
  void kill_process();
  bool process_alive() const { return process_alive_; }

  /// Stable-storage keys of a contact's two records. The description
  /// record (spec, callback, client id and seq, forwarded proxy) is written
  /// at creation and rewritten only on jm.update_gass and
  /// jm.refresh_credential; the Gatekeeper's audit and restart path read
  /// it. The state record (state, commit flag, local job id, streamed
  /// chunks) is rewritten on every transition.
  static std::string record_key(const std::string& contact);
  static std::string state_key(const std::string& contact);

 private:
  void install();
  void persist_description();
  void persist_state();
  /// Rebuild from both records (reattach).
  void load_record();
  void on_message(const sim::Message& message);
  void commit();
  void stage_in();
  void submit_to_scheduler();
  void watch_scheduler();
  /// The PENDING->ACTIVE check, run at the grid instant watch_scheduler
  /// computed.
  void observe_start();
  void on_local_terminal(const batch::JobRecord& record);
  void stage_out_and_finish(GramJobState final_state,
                            const std::string& why);
  /// Real-time stdout streaming while ACTIVE (spec.stream_interval > 0):
  /// start_streaming arms the first tick unless one is armed already.
  void start_streaming();
  void stream_output_tick();
  /// Restart the stream from byte 0 at the (possibly new) GASS server —
  /// the "request resending" path after a client crash/move.
  void restream_output();
  void set_state(GramJobState state, const std::string& why = "");
  void send_callback(const std::string& why);

  sim::Host& host_;
  sim::Network& network_;
  batch::LocalScheduler& scheduler_;
  std::string contact_;
  std::string state_key_;  // state_key(contact_)
  GramJobSpec spec_;
  sim::Address client_callback_;
  std::string client_id_;
  std::uint64_t client_seq_ = 0;
  bool auto_commit_ = false;
  det::HostLocal<GramJobState> state_;
  bool committed_ = false;
  std::uint64_t local_job_id_ = 0;
  std::uint64_t streamed_chunks_ = 0;  // also the append sequence number
  bool streaming_ = false;
  bool process_alive_ = true;
  sim::Lifetime life_;
  std::string forwarded_credential_;
  std::uint64_t job_handler_token_ = 0;    // terminal handler
  std::uint64_t start_handler_token_ = 0;  // start handler
  std::unique_ptr<sim::RpcClient> rpc_;
  std::unique_ptr<gass::FileClient> gass_;
  const JobManagerStateCounters* state_counters_ = nullptr;
  gass::StagingCache* staging_cache_ = nullptr;
  int crash_listener_ = 0;
  sim::SpanId stage_in_span_ = 0;
  sim::SpanId stage_out_span_ = 0;
};

}  // namespace condorg::gram
