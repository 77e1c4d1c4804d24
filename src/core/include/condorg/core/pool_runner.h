// Per-user pool runner: the agent-side half of the shared-pool scale-out.
//
// Both runners feed job ads to the same Negotiator daemon. The
// VanillaRunner writes them in place into the agent's *personal* Collector;
// the PoolRunner participates in one shared central pool: it accepts
// admitted job batches from the Portal (`portal.deliver`, with a persisted
// dedup marker so redelivery is idempotent), publishes a window of the
// user's idle jobs as *job ads* to the central Collector, and acts on
// `negotiator.match` notifications from the pool Negotiator by spawning a
// Shadow against the matched slot — the same claim protocol and the same
// per-host liveness probe (ShadowMonitor) as VanillaRunner, different
// matchmaking topology.
//
// The publish window is one job ad at a time: the central pool sees one
// pending ad per user (keeping the shared Collector proportional to the
// community, not the backlog), and each completion rolls the window
// forward. A delivery that would push the Schedd past `max_active` live
// jobs is rejected "busy" and stays queued at the portal — backpressure
// instead of a million-record queue. An empty Schedd admits any batch, so
// a batch larger than the cap waits for the runner to drain, never
// forever. The rejection is a debt: the runner persists that it owes the
// portal a credit before it says "busy", and once the Schedd has room for
// the smallest batch it turned away it sends `portal.credit`, retried
// until acked. Until then the portal delivers nothing more here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "condorg/condor/shadow.h"
#include "condorg/condor/shadow_monitor.h"
#include "condorg/core/schedd.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"

namespace condorg::core {

struct PoolRunnerOptions {
  /// The shared central Collector job ads are published to.
  sim::Address collector;
  /// TTL-refresh period for the published ad; an unchanged re-publish is a
  /// no-op at the Collector (checksum match), so this is cheap.
  double advertise_period = 300.0;
  /// Schedd admission cap: deliveries that would exceed this many live
  /// (idle+running+held) jobs are rejected "busy" back to the portal,
  /// unless there is no live job at all.
  std::size_t max_active = 8;
  condor::ShadowOptions shadow;
};

class PoolRunner {
 public:
  /// Runs on the user's submit host, next to their Schedd.
  CONDORG_HOST_LOCAL("user");

  static constexpr const char* kService = "pool_runner";

  using Options = PoolRunnerOptions;

  PoolRunner(Schedd& schedd, sim::Network& network, Options options);
  ~PoolRunner();

  PoolRunner(const PoolRunner&) = delete;
  PoolRunner& operator=(const PoolRunner&) = delete;

  sim::Address address() const { return {host_.name(), kService}; }

  /// Begin advertising (and re-advertising) the publish window.
  void start();

  // --- statistics ---
  std::uint64_t duplicate_deliveries() const { return duplicate_deliveries_; }
  std::uint64_t busy_rejections() const { return busy_rejections_; }
  std::uint64_t stale_matches() const { return stale_matches_; }

 private:
  void install();
  void on_message(const sim::Message& message);
  void on_deliver(const sim::Message& message);
  void on_match(const sim::Payload& body);
  /// Persist a debt to the portal on `portal_host` for a turned-away batch
  /// of `count` jobs; returns the credit number the busy reply carries.
  std::uint64_t owe_credit(const std::string& portal_host,
                           std::uint64_t count);
  /// Send each owed credit the Schedd now has room for.
  void grant_credits();
  /// Whether the Schedd has room for a batch of `count` jobs.
  bool has_room(std::uint64_t count) const;
  /// Rebuild the debts from their records (construction and boot).
  void reload_credits();
  /// (Re-)advertise the first idle un-shadowed job; invalidate the old ad
  /// when the window moved.
  void publish();
  void advertise_loop();
  void invalidate_published();
  std::string ad_name(std::uint64_t job_id) const;

  Schedd& schedd_;
  sim::Network& network_;
  sim::Host& host_;
  Options options_;
  sim::RpcClient rpc_;
  sim::Lifetime life_;
  condor::ShadowMonitor monitor_;  // outlives every Shadow below

  // det-local(shadows_): touched only from this host's own message and
  // timer events, same ownership story as VanillaRunner's shadow table.
  std::map<std::uint64_t, std::unique_ptr<condor::Shadow>> shadows_;
  /// A credit owed to one portal. Mirrors its record on disk, except
  /// `in_flight`.
  struct Debt {
    std::uint64_t owed = 0;    // smallest batch turned away; 0 once acked
    std::uint64_t number = 0;  // credit number of the latest busy reply
    bool in_flight = false;    // a portal.credit call awaits its ack
  };
  // det-local(debts_): this host's own events only, like shadows_.
  std::map<std::string, Debt> debts_;  // portal host -> debt
  /// Last credit number issued: the largest in any record, so numbers keep
  /// growing across restarts.
  std::uint64_t credit_seq_ = 0;
  /// Currently published job (0 = none). Volatile: a crash drops it and the
  /// ad ages out of the Collector by TTL; boot republishes.
  std::uint64_t published_id_ = 0;
  /// published_id_'s serialized ad, re-sent while the window stands still.
  std::string published_ad_;
  std::uint64_t claim_counter_ = 0;

  std::uint64_t duplicate_deliveries_ = 0;
  std::uint64_t busy_rejections_ = 0;
  std::uint64_t stale_matches_ = 0;

  bool started_ = false;
  int boot_id_ = 0;
  int crash_listener_ = 0;
};

}  // namespace condorg::core
