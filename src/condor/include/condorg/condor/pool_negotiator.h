// Pool-wide incremental (delta) Negotiator.
//
// The personal Negotiator (negotiator.h) re-reads the whole pool every
// cycle — fine for one user's private Collector, fatal at the portal scale
// of ROADMAP item 1 (thousands of agents sharing one central pool). This
// daemon colocates with the central Collector and subscribes to its change
// sequence instead: each cycle replays only the ads that changed since the
// last cycle, so the steady-state cost tracks churn, not pool size. Jobs
// enter the pool as *job ads* published by each user's PoolRunner; matches
// go back to the owning runner as a `negotiator.match` notify.
//
// Soundness of the restriction: a pending job that failed against every
// then-eligible slot can, while both sides stay unchanged, never start
// matching — so a *clean* job need only be retried against slots that
// changed, while a *dirty* job (its ad changed) retries everything. Both
// negotiators share one matcher (match_jobs_to_slots); this one passes the
// restriction in. A periodic anti-entropy sweep proves it: the mirror is
// checksum-compared against a full Collector read, and the restricted pass
// is compared against an unrestricted pass of the same matcher over the
// same candidates. Divergence surfaces through audit() as an invariant
// violation.
//
// Cross-user fairness is enforced here, at negotiation time: candidate
// jobs are ordered by batch::FairShareTable (decayed effective usage,
// starvation promotion) before the greedy matcher runs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "condorg/batch/fair_share_scheduler.h"
#include "condorg/classad/classad.h"
#include "condorg/condor/collector.h"
#include "condorg/condor/negotiator.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/metrics.h"

namespace condorg::condor {

struct PoolNegotiatorOptions {
  double cycle_period = 60.0;
  /// Selects negotiable machine ads out of the mirror.
  std::string slot_constraint = "State == \"Unclaimed\"";
  /// Anti-entropy: every Nth cycle checksum-audits the mirror against the
  /// Collector and cross-checks the restricted match pass against an
  /// unrestricted one. 0 disables (tests only).
  int full_sweep_every = 16;
  /// A match puts a local hold on both sides until the claim shows up as an
  /// ad change; a lost claim lapses after this long and both sides re-enter
  /// negotiation as changed.
  double hold_timeout = 180.0;
  batch::FairShareTable::Options fair_share;
};

class PoolNegotiator {
 public:
  /// Central-manager daemon, same host as the pool Collector.
  CONDORG_HOST_LOCAL("central");

  static constexpr const char* kService = "condor.pool_negotiator";

  using Options = PoolNegotiatorOptions;
  /// Wall-clock source for benchmark timing; unset (the default) means no
  /// timing is taken — simulation behavior never depends on it.
  using Clock = std::function<std::uint64_t()>;

  PoolNegotiator(sim::Host& host, sim::Network& network, Collector& collector,
                 Options options = {});
  ~PoolNegotiator();

  PoolNegotiator(const PoolNegotiator&) = delete;
  PoolNegotiator& operator=(const PoolNegotiator&) = delete;

  /// Begin periodic cycles.
  void start();

  /// Run one cycle immediately; returns matches made.
  std::size_t negotiate_once();

  // --- statistics ---
  std::uint64_t cycles() const { return *cycles_; }
  std::uint64_t matches_made() const { return *matches_; }
  std::uint64_t skipped_cycles() const { return *skipped_cycles_; }
  std::uint64_t full_resyncs() const { return *full_resyncs_; }
  std::uint64_t sweeps() const { return *sweeps_; }
  std::uint64_t divergences() const { return *divergences_; }
  const std::map<std::string, std::uint64_t>& matched_by_user() const {
    return *matched_by_user_;
  }
  std::size_t mirror_size() const { return mirror_->size(); }

  /// Invariant-audit hook: appends one line per recorded anti-entropy
  /// divergence or restricted-vs-full match disagreement.
  void audit(std::vector<std::string>& out) const;

  // --- benchmark timing (inert unless a clock is injected) ---
  // delta_cycle_ns: each cycle's ingest + restricted pass; reference_cycle_ns:
  // each sweep's unrestricted pass.
  void set_clock(Clock clock) { clock_ = std::move(clock); }
  const std::vector<std::uint64_t>& delta_cycle_ns() const {
    return delta_cycle_ns_;
  }
  const std::vector<std::uint64_t>& reference_cycle_ns() const {
    return reference_cycle_ns_;
  }

 private:
  struct MirrorEntry {
    Collector::AdPtr ad;
    std::uint64_t checksum = 0;
    bool is_job = false;
    std::string user;         // job ads only
    double hold_until = -1.0;  // >= now: matched, claim in flight
  };

  void cycle();
  /// Throw away the mirror and rebuild it from a full Collector read.
  void resync();
  /// Apply this cycle's deltas; returns the set of changed ad names.
  /// Sets `resynced` when the log could not serve us and a full rebuild
  /// happened instead.
  std::vector<std::string> ingest_deltas(bool& resynced);
  static bool classify_job(const classad::ClassAd& ad, std::string& user);
  bool slot_eligible(const MirrorEntry& entry, double now) const;
  bool job_pending(const MirrorEntry& entry, double now) const;
  /// Pending jobs in FairShareTable user order, then ad name, each flagged
  /// changed or clean; `users` collects every user with a pending job.
  std::vector<MatchInput> ordered_pending_jobs(
      const std::vector<std::string>& changed, bool all_changed, double now,
      std::set<std::string>& users);
  std::vector<MatchInput> eligible_slots(
      const std::vector<std::string>& changed, bool all_changed,
      double now) const;
  void record_violation(const std::string& text);
  void run_sweep(const std::vector<Match>& delta_matches,
                 const std::vector<MatchInput>& jobs,
                 const std::vector<MatchInput>& slots);

  sim::Host& host_;
  Collector& collector_;
  Options options_;
  classad::ExprPtr slot_constraint_;
  sim::RpcClient rpc_;
  Clock clock_;

  det::HostLocal<std::map<std::string, MirrorEntry>> mirror_;
  /// Names (jobs and slots) with an active match hold: exactly the mirror
  /// entries whose hold_until >= 0. Indexed separately so the per-cycle
  /// lapse check costs O(active holds), not O(pool).
  det::HostLocal<std::map<std::string, double>> holds_;
  det::HostLocal<std::uint64_t> last_seq_;
  det::HostLocal<batch::FairShareTable> fair_share_;
  det::HostLocal<std::map<std::string, std::uint64_t>> matched_by_user_;
  det::HostLocal<std::vector<std::string>> violations_;

  det::HostLocal<std::uint64_t> cycles_;
  det::HostLocal<std::uint64_t> matches_;
  det::HostLocal<std::uint64_t> skipped_cycles_;
  det::HostLocal<std::uint64_t> full_resyncs_;
  det::HostLocal<std::uint64_t> sweeps_;
  det::HostLocal<std::uint64_t> divergences_;

  util::Counter& cycles_counter_;
  util::Counter& matches_counter_;
  util::Counter& skipped_counter_;
  util::Counter& divergence_counter_;

  // det-local(delta_cycle_ns_): bench-only wall timings, written and read
  // solely by the benchmark harness; simulation behavior never reads them.
  std::vector<std::uint64_t> delta_cycle_ns_;
  // det-local(reference_cycle_ns_): same bench-only timing side channel.
  std::vector<std::uint64_t> reference_cycle_ns_;

  bool started_ = false;
  int boot_id_ = 0;
  int crash_listener_ = 0;
  sim::Lifetime life_;  // fences the cycle timer against destruction
};

}  // namespace condorg::condor
