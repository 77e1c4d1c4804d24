// Naive matchmaking oracle (tests and benches only).
//
// The straight-line greedy matcher that the compiled-plan matcher in
// condor/negotiator.cpp replaced: full classad::symmetric_match and
// eval_rank on every candidate pair, no plans, no caching. It is the
// behavioral oracle for matcher_equivalence_test and the baseline side of
// BENCH_M2 (BM_MatcherReference) and BENCH_U1 (delta_speedup).
#pragma once

#include <vector>

#include "condorg/condor/collector.h"
#include "condorg/condor/matcher.h"

namespace condorg::oracles {

/// The naive greedy loop with the same contract as
/// condor::match_jobs_to_slots, delta restriction included: restricted, a
/// job with `changed == false` is tried only against slots with
/// `changed == true`.
std::vector<condor::Match> match_jobs_to_slots_reference(
    const std::vector<condor::MatchInput>& jobs,
    const std::vector<condor::MatchInput>& slots, bool restricted = false);

/// Unrestricted, over IdleJobs and Collector views.
std::vector<condor::Match> match_jobs_to_slots_reference(
    const std::vector<condor::IdleJob>& jobs,
    const std::vector<condor::Collector::AdPtr>& slots);

}  // namespace condorg::oracles
