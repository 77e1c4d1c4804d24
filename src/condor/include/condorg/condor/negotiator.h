// Condor Negotiator: the Matchmaker.
//
// Each negotiation cycle pairs idle jobs (from the Schedd's queue) with
// unclaimed machine ads (from the Collector) using bilateral ClassAd
// matching (Raman et al. [25], referenced in §4.4/§5 of the paper), ranking
// candidates by the job's Rank expression.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "condorg/classad/classad.h"
#include "condorg/condor/collector.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/util/metrics.h"

namespace condorg::condor {

struct IdleJob {
  std::string job_id;
  classad::ClassAd ad;
};

/// One job<->slot pairing produced by a cycle.
struct Match {
  std::string job_id;
  classad::ClassAd slot_ad;  // includes Name and MyAddress
};

/// One job or slot as the matcher sees it, borrowed from the caller: the
/// matcher copies no input ad. `changed` is the delta-restriction input and
/// is read only by a restricted call.
struct MatchInput {
  const std::string* id = nullptr;  // jobs: the job_id a Match carries
  const classad::ClassAd* ad = nullptr;
  bool changed = false;
};

/// The greedy matcher, the one pairing loop of both negotiators: each job
/// (in order) takes its highest-Rank matching unused slot; each slot is
/// used at most once.
///
/// Unrestricted, every job is tried against every slot. `restricted` applies
/// the delta restriction (DESIGN.md §17): a job with `changed == false`
/// already failed against every unchanged slot, so it is tried only against
/// slots with `changed == true`.
///
/// Each job that may scan the whole pool has its Requirements analyzed once
/// into `TARGET.Attr <op> literal` conjuncts (plus a compiled Rank), and
/// every slot's Requirements likewise; each counterparty's referenced
/// attributes are resolved to literals once per call. A falsified conjunct
/// rejects a pair without the evaluator; only what no plan decides falls
/// through to classad::half_match. A restricted clean job gets no plan: the
/// evaluator decides its few pairs, and slot-side plans still apply. Results
/// are byte-identical to the naive oracle in oracles/ (pinned by
/// matcher_equivalence_test).
std::vector<Match> match_jobs_to_slots(const std::vector<MatchInput>& jobs,
                                       const std::vector<MatchInput>& slots,
                                       bool restricted = false);

/// Unrestricted convenience overloads for callers that own their jobs as
/// IdleJobs: over Collector views, and over plain ads.
std::vector<Match> match_jobs_to_slots(
    const std::vector<IdleJob>& jobs,
    const std::vector<Collector::AdPtr>& slots);
std::vector<Match> match_jobs_to_slots(
    const std::vector<IdleJob>& jobs,
    const std::vector<classad::ClassAd>& slots);

struct NegotiatorOptions {
  double cycle_period = 60.0;
  /// ClassAd constraint selecting negotiable slot ads from the collector.
  /// Compiled once at daemon construction, not re-parsed per cycle.
  std::string slot_constraint = "State == \"Unclaimed\"";
};

class Negotiator {
 public:
  /// Personal-pool daemon on the submit host.
  CONDORG_HOST_LOCAL("user");

  using JobSource = std::function<std::vector<IdleJob>()>;
  using MatchSink = std::function<void(const Match&)>;
  using Options = NegotiatorOptions;

  Negotiator(sim::Host& host, Collector& collector, JobSource jobs,
             MatchSink sink, Options options = {});
  ~Negotiator();

  Negotiator(const Negotiator&) = delete;
  Negotiator& operator=(const Negotiator&) = delete;

  /// Begin periodic negotiation cycles.
  void start();

  /// Run one cycle immediately (also used by tests).
  std::size_t negotiate_once();

  std::uint64_t cycles() const { return *cycles_; }
  std::uint64_t matches_made() const { return *matches_; }

 private:
  void cycle();

  sim::Host& host_;
  Collector& collector_;
  JobSource jobs_;
  MatchSink sink_;
  Options options_;
  classad::ExprPtr slot_constraint_;  // compiled options_.slot_constraint
  // Metric handles resolved once; Counter references stay stable for the
  // registry's lifetime, so the match loop skips the name+label lookup.
  util::Counter& cycles_counter_;
  util::Counter& matches_counter_;
  bool started_ = false;
  int boot_id_ = 0;
  det::HostLocal<std::uint64_t> cycles_;
  det::HostLocal<std::uint64_t> matches_;
  sim::Lifetime life_;  // fences the cycle timer against destruction
};

}  // namespace condorg::condor
