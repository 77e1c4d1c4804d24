// Multi-user submission portal (front-end).
//
// One shared entry point for a whole community of users, in front of the
// per-user agents: a PortalClient submits job batches here with a stable
// per-user sequence number; the portal admits them into a bounded queue,
// persists each admission to stable storage *before* acknowledging, and a
// flush timer hands admitted batches to each user's PoolRunner
// (`portal.deliver`) with retry until acknowledged. Duplicate submissions
// (client retry after a lost ack) are absorbed by the persisted admission
// record, and duplicate deliveries (portal retry after a lost ack) by the
// runner's own persisted marker — together: exactly-once admission across
// portal crashes, which explore.portal_storm model-checks.
//
// Backpressure is explicit at both hops. A full admission queue rejects
// with "busy" (the client backs off). A runner whose Schedd is at its
// active-job cap turns a delivery away with "busy" and a credit number; the
// portal then marks that runner closed and delivers nothing more to it
// until the runner's `portal.credit` — sent once the Schedd has room again
// — reopens it. The batch stays queued here meanwhile, and users trickle
// into their Schedds instead of materializing a million-job queue up front.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/metrics.h"

namespace condorg::core {

struct PortalOptions {
  /// Admission-queue depth cap (batches, not jobs); beyond it submissions
  /// are rejected "busy" and the client retries after a backoff.
  std::size_t max_queue_depth = 1024;
  /// Batching interval for the hand-off to PoolRunners.
  double flush_period = 1.0;
  /// Deliveries started per flush tick.
  std::size_t flush_batch = 64;
};

class Portal {
 public:
  /// Shared community infrastructure, like the GIIS directory.
  CONDORG_HOST_LOCAL("central");

  static constexpr const char* kService = "portal";

  using Options = PortalOptions;

  Portal(sim::Host& host, sim::Network& network, Options options = {});
  ~Portal();

  Portal(const Portal&) = delete;
  Portal& operator=(const Portal&) = delete;

  sim::Address address() const { return {host_.name(), kService}; }

  /// Begin the periodic flush loop.
  void start();

  // --- statistics ---
  std::uint64_t submits_received() const { return *submits_received_; }
  std::uint64_t batches_admitted() const { return *batches_admitted_; }
  std::uint64_t jobs_admitted() const { return *jobs_admitted_; }
  std::uint64_t duplicate_submits() const { return *duplicate_submits_; }
  std::uint64_t busy_rejections() const { return *busy_rejections_; }
  std::uint64_t deliveries_acked() const { return *deliveries_acked_; }
  std::size_t queue_depth() const { return queue_->size(); }
  /// Runners that turned a batch away and have not yet sent the credit
  /// that answers it.
  std::size_t closed_runners() const;

 private:
  /// What the portal knows of one runner's room. Credit numbers come from
  /// the runner and only grow; the runner is closed while the newest busy
  /// reply is newer than the newest credit. Volatile: a portal crash
  /// forgets it, which costs at most one more busy reply per runner.
  struct RunnerMark {
    std::uint64_t busy = 0;    // highest credit number on a busy reply
    std::uint64_t credit = 0;  // highest credit number received
    bool closed() const { return busy > credit; }
  };

  /// One admitted batch awaiting delivery to its user's PoolRunner.
  struct Admission {
    std::string user;
    std::uint64_t seq = 0;
    sim::Payload body;  // the original submit payload (redelivered verbatim)
    RunnerMark* runner = nullptr;  // its runner's entry in runners_
    bool in_flight = false;
  };

  void install();
  void on_message(const sim::Message& message);
  void flush();
  void deliver(Admission& admission);
  void on_credit(const sim::Message& message);
  /// Queue a batch whose `body` is its submit payload.
  void enqueue(sim::Payload body);
  /// Rebuild the admission queue from the persisted pending records.
  void reload();
  static std::string admitted_key(const std::string& user, std::uint64_t seq);
  static std::string pending_key(const std::string& user, std::uint64_t seq);

  sim::Host& host_;
  sim::Network& network_;
  Options options_;
  sim::RpcClient rpc_;
  sim::Lifetime life_;

  // Keyed by runner address; entries are never erased while the portal
  // lives, so Admission::runner stays valid until a crash clears both.
  det::HostLocal<std::map<std::string, RunnerMark>> runners_;
  det::HostLocal<std::deque<Admission>> queue_;
  det::HostLocal<std::uint64_t> submits_received_;
  det::HostLocal<std::uint64_t> batches_admitted_;
  det::HostLocal<std::uint64_t> jobs_admitted_;
  det::HostLocal<std::uint64_t> duplicate_submits_;
  det::HostLocal<std::uint64_t> busy_rejections_;
  det::HostLocal<std::uint64_t> deliveries_acked_;

  util::Counter& admitted_counter_;
  util::Counter& duplicate_counter_;
  util::Counter& busy_counter_;
  util::Gauge& depth_gauge_;

  bool started_ = false;
  int boot_id_ = 0;
  int crash_listener_ = 0;
};

}  // namespace condorg::core
