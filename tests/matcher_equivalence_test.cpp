// Equivalence pinning for the optimized matchmaking hot paths (PR: indexed
// collector queries, cached ClassAd evaluation, prefiltered matching).
//
// The optimized match_jobs_to_slots carries a Requirements prefilter that
// must be *exact*: it may only reject slots that full bilateral evaluation
// would reject. These tests run randomized-but-seeded ad populations —
// deliberately covering analyzable conjuncts, unscoped references, absent
// attributes, non-literal slot attributes, undefined/error literals, and
// OR/ternary shapes the analyzer must refuse to touch — through both the
// optimized matcher and the naive oracle (oracles/), and require
// byte-identical results, with and without the delta restriction.
// symmetric_match / eval_rank (cached attribute resolution) are pinned
// against lookup-based evaluation the same way.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/condor/matcher.h"
#include "condorg/oracles/match_oracle.h"
#include "condorg/util/rng.h"

namespace ca = condorg::classad;
namespace cc = condorg::condor;
namespace cu = condorg::util;
namespace oracles = condorg::oracles;

namespace {

const char* const kArchs[] = {"X86_64", "x86_64", "INTEL", "PPC", "SUN4u"};

// Requirement templates: a mix the prefilter can analyze fully, partially,
// or not at all. %M is replaced with a random memory bound.
const char* const kJobRequirements[] = {
    "other.Arch == \"x86_64\"",
    "other.Arch == \"X86_64\" && other.Memory >= %M",
    "other.Memory >= %M && other.Arch != \"PPC\"",
    "target.Memory >= %M && CpusWanted <= 4",     // unscoped second conjunct
    "other.Disk =?= undefined || other.Memory > %M",  // OR: not analyzable
    "other.Memory >= 100 + 28",                   // folds to a literal bound
    "other.Missing == 1",                         // absent on every slot
    "other.Memory >= %M && other.Mips > 0 && other.Arch == \"INTEL\"",
    "(other.Memory >= %M) == true",               // nested, not a plain ref
    "my.ImageSize <= other.Memory",               // literal on MY side only
};

const char* const kJobRanks[] = {
    "other.Mips",
    "other.Mips / other.Memory",
    "other.Memory * 2 - 1",
    "",  // absent
};

ca::ClassAd random_job_ad(cu::Rng& rng) {
  const std::int64_t image = 64 << rng.below(4);
  const std::int64_t memory = 128 << rng.below(4);
  std::string req = kJobRequirements[rng.below(std::size(kJobRequirements))];
  const auto pos = req.find("%M");
  if (pos != std::string::npos) {
    req.replace(pos, 2, std::to_string(memory));
  }
  std::string text = "[ImageSize = " + std::to_string(image) +
                     "; CpusWanted = " + std::to_string(1 + rng.below(8)) +
                     "; Requirements = " + req;
  const std::string rank = kJobRanks[rng.below(std::size(kJobRanks))];
  if (!rank.empty()) text += "; Rank = " + rank;
  text += "]";
  return ca::parse_ad(text);
}

ca::ClassAd random_slot_ad(cu::Rng& rng, std::size_t index) {
  std::string text = "[Name = \"slot" + std::to_string(index) + "\"";
  // Arch: mostly present, sometimes missing entirely.
  if (rng.below(10) != 0) {
    text += std::string("; Arch = \"") + kArchs[rng.below(std::size(kArchs))] +
            "\"";
  }
  // Memory: literal, non-literal (opaque to the prefilter), undefined, or
  // absent.
  switch (rng.below(8)) {
    case 0: text += "; TotalMemory = 2048; Memory = TotalMemory / 2"; break;
    case 1: text += "; Memory = undefined"; break;
    case 2: break;  // absent
    default:
      text += "; Memory = " + std::to_string(128 << rng.below(5));
      break;
  }
  text += "; Mips = " + std::to_string(rng.range(0, 4000));
  if (rng.below(4) == 0) text += "; Disk = undefined";
  if (rng.below(2) == 0) text += "; Requirements = other.ImageSize <= Memory";
  text += "; State = \"Unclaimed\"]";
  return ca::parse_ad(text);
}

std::vector<cc::IdleJob> random_jobs(cu::Rng& rng, std::size_t n) {
  std::vector<cc::IdleJob> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back({"job" + std::to_string(i), random_job_ad(rng)});
  }
  return jobs;
}

std::vector<cc::Collector::AdPtr> random_slots(cu::Rng& rng, std::size_t n) {
  std::vector<cc::Collector::AdPtr> slots;
  for (std::size_t i = 0; i < n; ++i) {
    slots.push_back(
        std::make_shared<const ca::ClassAd>(random_slot_ad(rng, i)));
  }
  return slots;
}

void expect_identical(const std::vector<cc::Match>& got,
                      const std::vector<cc::Match>& want,
                      std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].job_id, want[i].job_id) << "seed " << seed << " #" << i;
    EXPECT_EQ(got[i].slot_ad.unparse(), want[i].slot_ad.unparse())
        << "seed " << seed << " #" << i;
  }
}

/// Borrowed matcher inputs over `jobs` and `slots`; each is flagged changed
/// with probability `jobs_changed_in_8` / 8 (resp. `slots_changed_in_8`).
struct Inputs {
  std::vector<cc::MatchInput> jobs;
  std::vector<cc::MatchInput> slots;
};

Inputs flagged_inputs(cu::Rng& rng, const std::vector<cc::IdleJob>& jobs,
                      const std::vector<cc::Collector::AdPtr>& slots,
                      std::uint64_t jobs_changed_in_8,
                      std::uint64_t slots_changed_in_8) {
  Inputs in;
  for (const cc::IdleJob& job : jobs) {
    in.jobs.push_back(
        {&job.job_id, &job.ad, rng.below(8) < jobs_changed_in_8});
  }
  for (const cc::Collector::AdPtr& slot : slots) {
    in.slots.push_back(
        {nullptr, slot.get(), rng.below(8) < slots_changed_in_8});
  }
  return in;
}

/// Lookup-based evaluation, the way symmetric_match worked before the
/// cached Requirements/Rank resolution.
bool lookup_symmetric_match(const ca::ClassAd& left, const ca::ClassAd& right) {
  const auto half = [](const ca::ClassAd& my, const ca::ClassAd& target) {
    if (!my.contains("Requirements")) return true;
    const ca::Value v = my.eval("Requirements", &target);
    return v.is_bool() && v.as_bool();
  };
  return half(left, right) && half(right, left);
}

double lookup_eval_rank(const ca::ClassAd& ad, const ca::ClassAd& target) {
  const ca::Value v = ad.eval("Rank", &target);
  double d = 0.0;
  if (v.to_number(d)) return d;
  return 0.0;
}

}  // namespace

TEST(MatcherEquivalence, OptimizedMatchesReferenceOnRandomPopulations) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cu::Rng rng(seed);
    const auto jobs = random_jobs(rng, 30 + rng.below(30));
    const auto slots = random_slots(rng, 40 + rng.below(40));
    expect_identical(cc::match_jobs_to_slots(jobs, slots),
                     oracles::match_jobs_to_slots_reference(jobs, slots),
                     seed);
  }
}

TEST(MatcherEquivalence, RestrictedMatchesNaiveRestrictedLoop) {
  // (changed jobs, changed slots) out of 8: sparse churn through heavy.
  const std::uint64_t mixes[][2] = {{1, 1}, {2, 1}, {1, 4}, {4, 4}, {6, 2}};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const auto& mix : mixes) {
      cu::Rng rng(seed);
      const auto jobs = random_jobs(rng, 30 + rng.below(30));
      const auto slots = random_slots(rng, 40 + rng.below(40));
      const Inputs in = flagged_inputs(rng, jobs, slots, mix[0], mix[1]);
      expect_identical(
          cc::match_jobs_to_slots(in.jobs, in.slots, /*restricted=*/true),
          oracles::match_jobs_to_slots_reference(in.jobs, in.slots,
                                                 /*restricted=*/true),
          seed);
    }
  }
}

TEST(MatcherEquivalence, RestrictedEdgeCases) {
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    cu::Rng rng(seed);
    const auto jobs = random_jobs(rng, 30);
    const auto slots = random_slots(rng, 40);
    const auto restricted = [](const Inputs& in) {
      const auto got = cc::match_jobs_to_slots(in.jobs, in.slots, true);
      return std::make_pair(got, oracles::match_jobs_to_slots_reference(
                                     in.jobs, in.slots, true));
    };

    // All clean: only changed slots are candidates, and with none changed
    // nothing can match.
    const Inputs clean = flagged_inputs(rng, jobs, slots, 0, 3);
    const auto [clean_got, clean_want] = restricted(clean);
    expect_identical(clean_got, clean_want, seed);
    const Inputs idle = flagged_inputs(rng, jobs, slots, 0, 0);
    EXPECT_TRUE(cc::match_jobs_to_slots(idle.jobs, idle.slots, true).empty())
        << "seed " << seed;

    // No changed slot: clean jobs try nothing, so the result is exactly the
    // full scan over the dirty jobs alone.
    const Inputs frozen = flagged_inputs(rng, jobs, slots, 3, 0);
    const auto [frozen_got, frozen_want] = restricted(frozen);
    expect_identical(frozen_got, frozen_want, seed);
    std::vector<cc::MatchInput> dirty_only;
    for (const cc::MatchInput& job : frozen.jobs) {
      if (job.changed) dirty_only.push_back(job);
    }
    expect_identical(frozen_got,
                     cc::match_jobs_to_slots(dirty_only, frozen.slots), seed);

    // All dirty: the restriction is a no-op, identical to a full scan.
    const Inputs dirty = flagged_inputs(rng, jobs, slots, 8, 2);
    const auto [dirty_got, dirty_want] = restricted(dirty);
    expect_identical(dirty_got, dirty_want, seed);
    expect_identical(dirty_got,
                     cc::match_jobs_to_slots(dirty.jobs, dirty.slots), seed);
  }
}

TEST(MatcherEquivalence, PlainAdOverloadMatchesReference) {
  cu::Rng rng(77);
  const auto jobs = random_jobs(rng, 25);
  std::vector<ca::ClassAd> plain;
  std::vector<cc::Collector::AdPtr> shared;
  for (std::size_t i = 0; i < 50; ++i) {
    plain.push_back(random_slot_ad(rng, i));
    shared.push_back(std::make_shared<const ca::ClassAd>(plain.back()));
  }
  expect_identical(cc::match_jobs_to_slots(jobs, plain),
                   oracles::match_jobs_to_slots_reference(jobs, shared), 77);
}

TEST(MatcherEquivalence, EmptyEdgeCases) {
  cu::Rng rng(5);
  const auto jobs = random_jobs(rng, 10);
  const auto slots = random_slots(rng, 10);
  const std::vector<cc::IdleJob> no_jobs;
  const std::vector<cc::Collector::AdPtr> no_slots;
  EXPECT_TRUE(cc::match_jobs_to_slots(no_jobs, slots).empty());
  EXPECT_TRUE(cc::match_jobs_to_slots(jobs, no_slots).empty());
  EXPECT_TRUE(oracles::match_jobs_to_slots_reference(no_jobs, slots).empty());
  EXPECT_TRUE(oracles::match_jobs_to_slots_reference(jobs, no_slots).empty());
}

TEST(MatcherEquivalence, SymmetricMatchAgreesWithLookupEvaluation) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    cu::Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      const ca::ClassAd job = random_job_ad(rng);
      const ca::ClassAd slot =
          random_slot_ad(rng, static_cast<std::size_t>(i));
      EXPECT_EQ(ca::symmetric_match(job, slot),
                lookup_symmetric_match(job, slot))
          << "seed " << seed << " pair " << i;
      EXPECT_DOUBLE_EQ(ca::eval_rank(job, slot), lookup_eval_rank(job, slot))
          << "seed " << seed << " pair " << i;
    }
  }
}

TEST(MatcherEquivalence, CachedRequirementsTrackMutation) {
  // The cached Requirements/Rank pointers must follow insert/erase/update,
  // including case-insensitive respellings.
  ca::ClassAd job = ca::parse_ad("[Requirements = other.Memory >= 256]");
  const ca::ClassAd small = ca::parse_ad("[Memory = 128]");
  const ca::ClassAd big = ca::parse_ad("[Memory = 512]");
  EXPECT_FALSE(ca::symmetric_match(job, small));
  EXPECT_TRUE(ca::symmetric_match(job, big));

  job.insert_expr("REQUIREMENTS", "other.Memory >= 64");  // respelled update
  EXPECT_TRUE(ca::symmetric_match(job, small));

  job.erase("requirements");
  EXPECT_TRUE(ca::symmetric_match(job, small));  // absent matches anything

  ca::ClassAd overlay;
  overlay.insert_expr("Requirements", "other.Memory >= 1024");
  job.update(overlay);
  EXPECT_FALSE(ca::symmetric_match(job, big));

  job.insert_expr("rank", "other.Memory");
  EXPECT_DOUBLE_EQ(ca::eval_rank(job, big), 512.0);
  job.erase("Rank");
  EXPECT_DOUBLE_EQ(ca::eval_rank(job, big), 0.0);
}
