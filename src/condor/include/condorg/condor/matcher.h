// The Matchmaker's pairing loop.
//
// Pairs job ads with machine ads by bilateral ClassAd matching (Raman et
// al. [25], referenced in §4.4/§5 of the paper), ranking candidates by the
// job's Rank expression. The PoolNegotiator (pool_negotiator.h) runs it
// each cycle over the ads in its Collector.
#pragma once

#include <string>
#include <vector>

#include "condorg/classad/classad.h"
#include "condorg/condor/collector.h"

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

/// The greedy matcher: each job (in order) takes its highest-Rank matching
/// unused slot; each slot is used at most once.
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

}  // namespace condorg::condor
