// LSF/LoadLeveler-style fair-share scheduler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "condorg/batch/local_scheduler.h"

namespace condorg::batch {

/// Cross-user fair-share accounting for negotiation-time fairness.
///
/// The per-site FairShareScheduler below orders one cluster's queue by raw
/// accumulated usage; this table is the pool-wide generalization the
/// PoolNegotiator consults each cycle. Usage decays exponentially (half-life),
/// so a user's past consumption stops counting against them over time, and
/// users whose idle jobs keep losing cycles accrue a starvation count that
/// eventually promotes them ahead of everyone else — the classic
/// effective-usage + aging hybrid.
///
/// Users are dense ids in the order they were added: one row per id in a
/// vector, so a negotiation cycle touches only the rows of the users it
/// orders, charges or marks, and looks up no name. The PoolNegotiator adds
/// its Collector's users in the Collector's id order, so both share one id
/// space (DESIGN.md §17).
class FairShareTable {
 public:
  using UserId = std::uint32_t;

  struct Options {
    /// Effective usage halves every this many simulated seconds.
    double half_life = 3600.0;
    /// Cycles a user may sit with pending-but-unmatched jobs before being
    /// promoted ahead of the usage order.
    int starvation_threshold = 8;
  };

  FairShareTable() = default;
  explicit FairShareTable(Options options) : options_(options) {}

  /// Append a user with no usage; returns its id, which is user_count()
  /// before the call. Names must be distinct: they break order ties.
  UserId add_user(std::string name);
  std::size_t user_count() const { return rows_.size(); }
  const std::string& name(UserId user) const { return rows_[user].name; }

  /// Charge `amount` (slot-seconds, or simply matches) of usage at `now`.
  void charge(UserId user, double amount, double now);

  /// The user had pending jobs this cycle and none matched / at least one
  /// matched. Served resets the starvation count.
  void note_starved(UserId user) { ++rows_[user].starvation; }
  void note_served(UserId user) { rows_[user].starvation = 0; }

  /// Usage decayed to `now`.
  double effective_usage(UserId user, double now) const;
  int starvation(UserId user) const { return rows_[user].starvation; }

  /// Sort `users` into negotiation order: starving users first (most
  /// starved wins), then everyone else by ascending effective usage, names
  /// breaking ties. A total order, so the result is priority_order()
  /// filtered to `users`.
  void order(std::vector<UserId>& users, double now) const;

  /// Every user's name in negotiation order.
  std::vector<std::string> priority_order(double now) const;

 private:
  struct Row {
    std::string name;
    double usage = 0.0;
    double usage_as_of = 0.0;
    int starvation = 0;
  };
  double decayed(const Row& row, double now) const;

  Options options_;
  std::vector<Row> rows_;
};

/// Dispatches the oldest queued job of the *least-served* owner (by
/// accumulated CPU-seconds), so one user cannot monopolize the cluster —
/// the "system-wide collection of queues each representing a different
/// class of service" model the paper contrasts Condor with (§7).
class FairShareScheduler final : public LocalScheduler {
 public:
  FairShareScheduler(sim::Simulation& sim, std::string name, int total_cpus)
      : LocalScheduler(sim, std::move(name), total_cpus) {}

 protected:
  std::size_t pick_next(int free) const override;
};

}  // namespace condorg::batch
