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
// Backpressure is explicit at both hops: a full admission queue rejects
// with "busy" (the client backs off), and a runner whose Schedd is at its
// active-job cap rejects the delivery with "busy" (the batch stays queued
// here). Users therefore trickle into their Schedds instead of
// materializing a million-job queue up front.
#pragma once

#include <cstdint>
#include <deque>
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

 private:
  /// One admitted batch awaiting delivery to its user's PoolRunner.
  struct Admission {
    std::string user;
    std::uint64_t seq = 0;
    sim::Payload body;  // the original submit payload (redelivered verbatim)
    bool in_flight = false;
  };

  void install();
  void on_message(const sim::Message& message);
  void flush();
  void deliver(Admission& admission);
  /// Rebuild the admission queue from the persisted pending records.
  void reload();
  static std::string admitted_key(const std::string& user, std::uint64_t seq);
  static std::string pending_key(const std::string& user, std::uint64_t seq);

  sim::Host& host_;
  sim::Network& network_;
  Options options_;
  sim::RpcClient rpc_;
  sim::Lifetime life_;

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
