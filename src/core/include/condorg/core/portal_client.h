// Per-user submission driver for the Portal.
//
// Holds the user's workload as a *count* of jobs still to submit (never
// materializing them — at community scale that would be millions of
// records) and feeds it to the Portal in fixed-size batches under a stable
// per-user sequence number. A lost ack is retried with the same sequence,
// which the Portal's persisted admission record absorbs; a "busy" portal
// backs the client off. Progress (next sequence, jobs remaining) is
// persisted so a submit-host crash resumes instead of double-submitting.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"

namespace condorg::core {

struct PortalClientOptions {
  sim::Address portal;
  /// This user's PoolRunner, where the portal delivers admitted batches.
  sim::Address deliver_to;
  std::string user = "user";
  std::uint64_t total_jobs = 0;
  std::uint64_t batch_size = 4;
  double runtime_seconds = 60.0;
  int cpus = 1;
  /// Extra job-ad attributes carried through to the delivered jobs.
  std::string requirements;
  /// Backoff after a "busy" rejection or a lost ack.
  double retry_backoff = 5.0;
};

class PortalClient {
 public:
  /// Lives on the user's submit host.
  CONDORG_HOST_LOCAL("user");

  using Options = PortalClientOptions;

  PortalClient(sim::Host& host, sim::Network& network, Options options);
  ~PortalClient();

  PortalClient(const PortalClient&) = delete;
  PortalClient& operator=(const PortalClient&) = delete;

  /// Begin submitting; `on_drained` (optional) fires once when every batch
  /// has been admitted.
  void start(std::function<void()> on_drained = nullptr);

  bool drained() const { return remaining_ == 0; }
  std::uint64_t remaining_jobs() const { return remaining_; }
  std::uint64_t retries() const { return retries_; }

 private:
  void submit_next();
  void persist_progress();
  void reload_progress();

  sim::Host& host_;
  Options options_;
  sim::RpcClient rpc_;
  sim::Lifetime life_;
  std::function<void()> on_drained_;

  std::uint64_t next_seq_ = 1;
  std::uint64_t remaining_ = 0;
  bool in_flight_ = false;
  std::uint64_t retries_ = 0;

  bool started_ = false;
  int boot_id_ = 0;
  int crash_listener_ = 0;
};

}  // namespace condorg::core
