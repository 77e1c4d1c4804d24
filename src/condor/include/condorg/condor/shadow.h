// Condor Shadow: the submit-side representative of one running job.
//
// The shadow claims a startd slot, activates the job, and receives its
// checkpoints and redirected system calls ("Remote I/O services", §6). It
// does not poll its Startd: once activated it is watched by its runner's
// ShadowMonitor, which probes each execute host's responder (the one daemon
// there that answers for every claim on the host) once per poll_interval
// with a startd.status_all, and hands each Shadow its claim's line of the
// reply. On eviction or loss the shadow reports the job back for
// re-queueing with the last checkpoint, so completed work is conserved
// across machines — the migration half of the GlideIn story.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"

namespace condorg::condor {

struct ShadowJob {
  std::string job_id;
  double total_work_seconds = 0;
  double checkpointed_work = 0;  // carried over from previous executions
};

struct ShadowOptions {
  double poll_interval = 120.0;  // liveness probe cadence per execute host
};

/// One Startd's line in its responder's startd.status_all reply.
struct SlotStatus {
  std::string state;     // Startd::to_string, or MISSING
  std::string job_id;    // the job its claim runs; empty when unclaimed
  double work_done = 0;  // that job's progress while Running
};

class ShadowMonitor;

class Shadow {
 public:
  /// Runs on the submit host, next to the job's Schedd.
  CONDORG_HOST_LOCAL("user");

  enum class Outcome { kPending, kDone, kRequeued };

  /// `responder` answers for `startd`'s host (the Startd itself when it
  /// stands alone); `monitor` probes it once the job is activated.
  /// `on_done(job_id)` — job finished all its work.
  /// `on_requeue(job_id, checkpointed_work, reason)` — execution ended early
  /// (eviction, slot death, claim failure); the job should run again
  /// elsewhere starting from `checkpointed_work`.
  Shadow(ShadowMonitor& monitor, ShadowJob job, sim::Address startd,
         sim::Address responder, std::string claim_id,
         std::function<void(const std::string&)> on_done,
         std::function<void(const std::string&, double, const std::string&)>
             on_requeue);
  ~Shadow();

  Shadow(const Shadow&) = delete;
  Shadow& operator=(const Shadow&) = delete;

  /// Claim the slot and activate the job.
  void start();

  /// One probe's word on this claim; nullptr when the responder was silent.
  /// Our job Running folds its progress in and resets the count; anything
  /// else (MISSING, another claim, silence) counts toward kMaxMissedPolls.
  void observe(const SlotStatus* status);

  Outcome outcome() const { return outcome_; }
  double last_checkpoint() const { return job_.checkpointed_work; }
  std::uint64_t io_bytes() const { return io_bytes_; }
  std::uint64_t io_ops() const { return io_ops_; }
  std::uint64_t checkpoints_received() const { return checkpoints_; }
  const std::string& job_id() const { return job_.job_id; }
  sim::Address address() const { return {host_.name(), service_}; }

 private:
  friend class ShadowMonitor;

  /// Timeout of every Shadow and ShadowMonitor request to a Startd.
  static constexpr double kRpcTimeout = 30.0;

  void on_message(const sim::Message& message);
  void finish(Outcome outcome, const std::string& reason);
  void release_slot();

  ShadowMonitor& monitor_;
  sim::Host& host_;
  sim::Network& network_;
  ShadowJob job_;
  sim::Address startd_;
  sim::Address responder_;
  std::string claim_id_;
  std::string service_;
  std::function<void(const std::string&)> on_done_;
  std::function<void(const std::string&, double, const std::string&)>
      on_requeue_;
  sim::RpcClient rpc_;
  Outcome outcome_ = Outcome::kPending;
  std::uint64_t monitor_key_ = 0;  // 0 while not watched
  int missed_polls_ = 0;
  std::uint64_t io_bytes_ = 0;
  std::uint64_t io_ops_ = 0;
  std::uint64_t checkpoints_ = 0;
};

}  // namespace condorg::condor
