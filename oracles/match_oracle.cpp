#include "condorg/oracles/match_oracle.h"

#include <cstddef>

#include "condorg/classad/classad.h"

namespace condorg::oracles {

std::vector<condor::Match> match_jobs_to_slots_reference(
    const std::vector<condor::MatchInput>& jobs,
    const std::vector<condor::MatchInput>& slots, bool restricted) {
  std::vector<condor::Match> matches;
  std::vector<bool> used(slots.size(), false);
  std::size_t slots_left = slots.size();
  for (const condor::MatchInput& job : jobs) {
    if (slots_left == 0) break;  // pool exhausted this cycle
    std::size_t best = slots.size();
    double best_rank = 0;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (used[i]) continue;
      if (restricted && !job.changed && !slots[i].changed) continue;
      if (!classad::symmetric_match(*job.ad, *slots[i].ad)) continue;
      const double rank = classad::eval_rank(*job.ad, *slots[i].ad);
      if (best == slots.size() || rank > best_rank) {
        best = i;
        best_rank = rank;
      }
    }
    if (best < slots.size()) {
      used[best] = true;
      --slots_left;
      matches.push_back(condor::Match{*job.id, *slots[best].ad});
    }
  }
  return matches;
}

std::vector<condor::Match> match_jobs_to_slots_reference(
    const std::vector<condor::IdleJob>& jobs,
    const std::vector<condor::Collector::AdPtr>& slots) {
  std::vector<condor::MatchInput> job_inputs;
  job_inputs.reserve(jobs.size());
  for (const condor::IdleJob& job : jobs) {
    job_inputs.push_back({&job.job_id, &job.ad});
  }
  std::vector<condor::MatchInput> slot_inputs;
  slot_inputs.reserve(slots.size());
  for (const condor::Collector::AdPtr& slot : slots) {
    slot_inputs.push_back({nullptr, slot.get()});
  }
  return match_jobs_to_slots_reference(job_inputs, slot_inputs);
}

}  // namespace condorg::oracles
