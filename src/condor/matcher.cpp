#include "condorg/condor/matcher.h"

#include <cctype>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace condorg::condor {
namespace {

// ---------- Requirements pre-filter ----------
//
// A Requirements expression is usually a conjunction like
//   TARGET.Arch == "x86_64" && TARGET.Memory >= 512 && <opaque rest>
// Analyzing the AND-chain once per ad and resolving each counterparty's
// referenced attributes to literal values once per call lets most candidate
// pairs be decided with a hash lookup and a value compare instead of a full
// double-sided tree evaluation. Both directions are analyzed: job plans run
// against a table of slot attributes and slot plans against a table of job
// attributes; a job's `Rank = TARGET.Attr` resolves through the same table.
//
// Soundness: Requirements must evaluate to exactly TRUE for a match, and
// `a && b` is TRUE only when both operands are TRUE, so any conjunct that
// provably evaluates to FALSE/UNDEFINED/ERROR rules the pair out. Conjuncts
// are analyzed only when they are `TARGET.Attr <op> literal` (either operand
// order) with a fuzzy comparison operator: the TARGET scope pins resolution
// to the other ad (no MY-first fallback), an absent attribute is exactly
// UNDEFINED, and a literal-valued attribute feeds a typed replica of
// compare() — numbers/bools numerically, strings case-insensitively, mixed
// types ERROR — after BinaryExpr::eval's ERROR/UNDEFINED strictness checks.
// The MY-side operand may itself be an attribute reference when it resolves
// to a literal in the owning ad (captured at analyze time — evaluation
// would return exactly that value). When a plan covers the *entire*
// AND-chain and every
// referenced attribute resolved to a literal, all-conjuncts-hold is likewise
// an exact TRUE certificate for that side (AND of TRUEs is TRUE), so the
// full evaluator can be skipped; otherwise the undecided side falls back to
// half_match. The net result is byte-identical to the naive matcher
// (symmetric evaluation of every candidate pair).

/// Case-insensitive attr-name interning: one table per side.
using NameTable =
    std::unordered_map<std::string, std::size_t, classad::AttrNameHash,
                       classad::AttrNameEq>;

struct Conjunct {
  /// The literal operand, pre-classified the way compare() coerces: numbers
  /// and bools compare numerically, strings case-insensitively, and an
  /// UNDEFINED/ERROR literal (kNever) can never make the conjunct TRUE.
  enum class LitKind : std::uint8_t { kNumber, kString, kNever };
  std::size_t attr_id = 0;  // interned TARGET attribute name
  classad::BinaryOp op = classad::BinaryOp::kEq;
  classad::Value literal;     // the MY-side literal operand
  LitKind lit_kind = LitKind::kNever;
  double num = 0.0;           // valid iff lit_kind == kNumber
  bool attr_on_left = true;   // TARGET.Attr <op> lit  vs  lit <op> TARGET.Attr
};

/// One attribute of one ad, resolved and type-classified once per call.
struct ResolvedAttr {
  enum class Kind : std::uint8_t {
    kAbsent,   // not in the ad: TARGET.attr is exactly UNDEFINED
    kOpaque,   // bound to a non-literal: only the evaluator can decide
    kNumber,   // numeric literal (int/real/bool), coerced value in `num`
    kString,   // string literal
    kReject,   // UNDEFINED/ERROR literal: strictness rejects pre-compare
  };
  Kind kind = Kind::kAbsent;
  double num = 0.0;
  const classad::Value* literal = nullptr;  // non-null for any literal kind
};

void collect_and_leaves(const classad::ExprPtr& expr,
                        std::vector<const classad::Expr*>& leaves) {
  const auto* bin = dynamic_cast<const classad::BinaryExpr*>(expr.get());
  if (bin != nullptr && bin->op() == classad::BinaryOp::kAnd) {
    collect_and_leaves(bin->lhs(), leaves);
    collect_and_leaves(bin->rhs(), leaves);
    return;
  }
  leaves.push_back(expr.get());
}

bool is_fuzzy_compare(classad::BinaryOp op) {
  switch (op) {
    case classad::BinaryOp::kLess:
    case classad::BinaryOp::kLessEq:
    case classad::BinaryOp::kGreater:
    case classad::BinaryOp::kGreaterEq:
    case classad::BinaryOp::kEq:
    case classad::BinaryOp::kNotEq:
      return true;
    default:
      return false;
  }
}

std::size_t intern(NameTable& table, std::vector<std::string>& names,
                   const std::string& name) {
  const auto it = table.find(std::string_view(name));
  if (it != table.end()) return it->second;
  const std::size_t id = names.size();
  names.push_back(name);
  table.emplace(name, id);
  return id;
}

/// One side's Requirements, compiled. `complete` means the conjuncts cover
/// the whole AND-chain (or the attribute is absent, which is uncondition-
/// ally true), so all-conjuncts-hold certifies this side without fallback —
/// unless a referenced attribute turns out opaque for a given counterparty.
struct Plan {
  std::vector<Conjunct> conjuncts;
  bool complete = false;
};

/// The literal value of a conjunct's MY-side operand, if it has one: either
/// a literal subtree (possibly parse-time folded), or an attribute reference
/// that resolves *in the owning ad* to a literal binding. MY-scoped and
/// unscoped refs both resolve MY-first; when the name is bound to a literal
/// there, evaluation returns exactly that value regardless of TARGET, so
/// capturing it at analyze time is sound. Anything else — absent (an
/// unscoped ref would fall through to TARGET), or bound to a non-literal —
/// returns nullptr and the conjunct stays unanalyzed.
const classad::Value* my_side_literal(const classad::Expr* e,
                                      const classad::ClassAd& my,
                                      classad::ExprPtr& keep_alive) {
  if (const classad::Value* lit = e->literal()) return lit;
  const auto* ref = dynamic_cast<const classad::AttrRefExpr*>(e);
  if (ref == nullptr || ref->scope() == classad::AttrScope::kTarget) {
    return nullptr;
  }
  keep_alive = my.lookup(ref->name());
  if (!keep_alive) return nullptr;
  return keep_alive->literal();
}

Plan analyze_requirements(const classad::ExprPtr& req,
                          const classad::ClassAd& my, NameTable& table,
                          std::vector<std::string>& names) {
  Plan plan;
  if (!req) {
    plan.complete = true;  // absent Requirements matches anything
    return plan;
  }
  std::vector<const classad::Expr*> leaves;
  collect_and_leaves(req, leaves);
  plan.complete = true;
  for (const classad::Expr* leaf : leaves) {
    const auto* bin = dynamic_cast<const classad::BinaryExpr*>(leaf);
    if (bin == nullptr || !is_fuzzy_compare(bin->op())) {
      plan.complete = false;
      continue;
    }
    const auto* lref =
        dynamic_cast<const classad::AttrRefExpr*>(bin->lhs().get());
    const auto* rref =
        dynamic_cast<const classad::AttrRefExpr*>(bin->rhs().get());
    classad::ExprPtr keep_alive;
    Conjunct c;
    if (lref != nullptr && lref->scope() == classad::AttrScope::kTarget) {
      const classad::Value* rlit =
          my_side_literal(bin->rhs().get(), my, keep_alive);
      if (rlit == nullptr) {
        plan.complete = false;
        continue;
      }
      c.attr_id = intern(table, names, lref->name());
      c.literal = *rlit;
      c.attr_on_left = true;
    } else if (rref != nullptr &&
               rref->scope() == classad::AttrScope::kTarget) {
      const classad::Value* llit =
          my_side_literal(bin->lhs().get(), my, keep_alive);
      if (llit == nullptr) {
        plan.complete = false;
        continue;
      }
      c.attr_id = intern(table, names, rref->name());
      c.literal = *llit;
      c.attr_on_left = false;
    } else {
      plan.complete = false;
      continue;
    }
    c.op = bin->op();
    double d = 0.0;
    if (c.literal.to_number(d)) {
      c.lit_kind = Conjunct::LitKind::kNumber;
      c.num = d;
    } else if (c.literal.is_string()) {
      c.lit_kind = Conjunct::LitKind::kString;
    } else {
      c.lit_kind = Conjunct::LitKind::kNever;
    }
    plan.conjuncts.push_back(std::move(c));
  }
  return plan;
}

/// Allocation-free replica of compare()'s string ordering: to_lower() both
/// sides, lexicographic on the lowered bytes (std::string's element compare
/// is unsigned).
int ci_compare(const std::string& a, const std::string& b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto ca = static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(a[i])));
    const auto cb = static_cast<unsigned char>(
        std::tolower(static_cast<unsigned char>(b[i])));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// Exactly the result of full evaluation being TRUE, for a conjunct whose
/// TARGET side resolved to `sa` (kind kNumber or kString). Mirrors
/// BinaryExpr::eval + compare(): ERROR/UNDEFINED operands and mixed
/// incomparable types are never TRUE; numbers (bools coerced) compare
/// numerically, strings case-insensitively.
bool conjunct_holds(const Conjunct& c, const ResolvedAttr& sa) {
  int cmp;
  if (c.lit_kind == Conjunct::LitKind::kNumber &&
      sa.kind == ResolvedAttr::Kind::kNumber) {
    const double a = c.attr_on_left ? sa.num : c.num;
    const double b = c.attr_on_left ? c.num : sa.num;
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (c.lit_kind == Conjunct::LitKind::kString &&
             sa.kind == ResolvedAttr::Kind::kString) {
    const std::string& a =
        c.attr_on_left ? sa.literal->as_string() : c.literal.as_string();
    const std::string& b =
        c.attr_on_left ? c.literal.as_string() : sa.literal->as_string();
    cmp = ci_compare(a, b);
  } else {
    return false;  // kNever or mixed types: ERROR under fuzzy compare
  }
  switch (c.op) {
    case classad::BinaryOp::kLess: return cmp < 0;
    case classad::BinaryOp::kLessEq: return cmp <= 0;
    case classad::BinaryOp::kGreater: return cmp > 0;
    case classad::BinaryOp::kGreaterEq: return cmp >= 0;
    case classad::BinaryOp::kEq: return cmp == 0;
    case classad::BinaryOp::kNotEq: return cmp != 0;
    default: return false;
  }
}

/// A job's Rank, compiled: absent (constant 0), a literal constant, a plain
/// TARGET attribute reference (resolved through the slot-attribute table),
/// or anything else (full eval_rank per candidate).
struct RankPlan {
  enum class Kind { kZero, kConstant, kAttr, kFull };
  Kind kind = Kind::kZero;
  double constant = 0.0;
  std::size_t attr_id = 0;
};

RankPlan analyze_rank(const classad::ExprPtr& rank, NameTable& table,
                      std::vector<std::string>& names) {
  RankPlan plan;
  if (!rank) return plan;  // kZero: eval_rank of a missing Rank is 0.0
  if (const classad::Value* lit = rank->literal()) {
    plan.kind = RankPlan::Kind::kConstant;
    double d = 0.0;
    plan.constant = lit->to_number(d) ? d : 0.0;
    return plan;
  }
  const auto* ref = dynamic_cast<const classad::AttrRefExpr*>(rank.get());
  if (ref != nullptr && ref->scope() == classad::AttrScope::kTarget) {
    plan.kind = RankPlan::Kind::kAttr;
    plan.attr_id = intern(table, names, ref->name());
    return plan;
  }
  plan.kind = RankPlan::Kind::kFull;
  return plan;
}

/// Resolve every interned attribute of every ad once, into a flat
/// row-per-ad table the per-pair loop can index directly. The `literal`
/// pointers alias expressions owned by the ads, which outlive the call.
std::vector<ResolvedAttr> resolve_attrs(const std::vector<MatchInput>& ads,
                                        const std::vector<std::string>& names) {
  std::vector<ResolvedAttr> rows(ads.size() * names.size());
  for (std::size_t a = 0; a < ads.size(); ++a) {
    ResolvedAttr* row = &rows[a * names.size()];
    for (std::size_t n = 0; n < names.size(); ++n) {
      const classad::ExprPtr expr = ads[a].ad->lookup(names[n]);
      if (!expr) continue;  // stays kAbsent
      ResolvedAttr& ra = row[n];
      ra.literal = expr->literal();
      if (ra.literal == nullptr) {
        ra.kind = ResolvedAttr::Kind::kOpaque;
      } else if (ra.literal->to_number(ra.num)) {
        ra.kind = ResolvedAttr::Kind::kNumber;
      } else if (ra.literal->is_string()) {
        ra.kind = ResolvedAttr::Kind::kString;
      } else {
        ra.kind = ResolvedAttr::Kind::kReject;  // UNDEFINED/ERROR literal
      }
    }
  }
  return rows;
}

/// Run one side's plan against the counterparty's resolved attributes.
/// Returns false when the side is provably not TRUE; on true, `decided` is
/// set iff the plan certified the side TRUE (complete and no opaque attrs).
bool plan_passes(const Plan& plan, const ResolvedAttr* row, bool& decided) {
  decided = plan.complete;
  for (const Conjunct& c : plan.conjuncts) {
    const ResolvedAttr& sa = row[c.attr_id];
    switch (sa.kind) {
      case ResolvedAttr::Kind::kAbsent:  // TARGET.attr is exactly UNDEFINED
      case ResolvedAttr::Kind::kReject:
        return false;
      case ResolvedAttr::Kind::kOpaque:  // this side needs the evaluator
        decided = false;
        continue;
      default:
        if (!conjunct_holds(c, sa)) return false;
    }
  }
  return true;
}

std::vector<MatchInput> job_inputs(const std::vector<IdleJob>& jobs) {
  std::vector<MatchInput> out;
  out.reserve(jobs.size());
  for (const IdleJob& job : jobs) out.push_back({&job.job_id, &job.ad});
  return out;
}

}  // namespace

std::vector<Match> match_jobs_to_slots(const std::vector<MatchInput>& jobs,
                                       const std::vector<MatchInput>& slots,
                                       bool restricted) {
  // Compile both directions once: job Requirements + Rank, slot
  // Requirements. Job plans intern the slot attributes they read and slot
  // plans the job attributes they read, so each side resolves only what the
  // other side's plans reference. A restricted clean job keeps the default
  // plans — an empty incomplete Plan defers the job side to half_match, and
  // a kFull RankPlan to eval_rank — because compiling a plan to decide a
  // handful of pairs costs more than it saves.
  NameTable slot_table;
  NameTable job_table;
  std::vector<std::string> slot_names;
  std::vector<std::string> job_names;
  std::vector<Plan> job_plans(jobs.size());
  std::vector<RankPlan> rank_plans(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const classad::ClassAd& ad = *jobs[j].ad;
    if (restricted && !jobs[j].changed) {
      rank_plans[j].kind = RankPlan::Kind::kFull;
      continue;
    }
    job_plans[j] =
        analyze_requirements(ad.requirements(), ad, slot_table, slot_names);
    rank_plans[j] = analyze_rank(ad.rank(), slot_table, slot_names);
  }
  std::vector<Plan> slot_plans;
  slot_plans.reserve(slots.size());
  for (const MatchInput& slot : slots) {
    slot_plans.push_back(analyze_requirements(slot.ad->requirements(),
                                              *slot.ad, job_table, job_names));
  }

  // Resolve every referenced attribute on both sides, once per call.
  std::vector<ResolvedAttr> slot_attrs;
  std::vector<ResolvedAttr> job_attrs;
  if (!slot_names.empty()) slot_attrs = resolve_attrs(slots, slot_names);
  if (!job_names.empty()) job_attrs = resolve_attrs(jobs, job_names);

  // A clean job under the restriction scans only this (usually tiny) list.
  std::vector<std::size_t> changed_slots;
  if (restricted) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].changed) changed_slots.push_back(i);
    }
  }

  std::vector<Match> matches;
  std::vector<bool> used(slots.size(), false);
  std::size_t slots_left = slots.size();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (slots_left == 0) break;  // pool exhausted this cycle
    const classad::ClassAd& job = *jobs[j].ad;
    const Plan& job_plan = job_plans[j];
    const RankPlan& rank_plan = rank_plans[j];
    const ResolvedAttr* job_row =
        job_names.empty() ? nullptr : &job_attrs[j * job_names.size()];
    std::size_t best = slots.size();
    double best_rank = 0;
    const auto consider = [&](std::size_t i) {
      if (used[i]) return;
      const classad::ClassAd& slot = *slots[i].ad;
      const ResolvedAttr* slot_row =
          slot_names.empty() ? nullptr : &slot_attrs[i * slot_names.size()];
      // Job side: plan first, evaluator only if the plan couldn't certify.
      bool job_side_decided = false;
      if (!plan_passes(job_plan, slot_row, job_side_decided)) return;
      if (!job_side_decided && !classad::half_match(job, slot)) return;
      // Slot side, symmetrically.
      bool slot_side_decided = false;
      if (!plan_passes(slot_plans[i], job_row, slot_side_decided)) return;
      if (!slot_side_decided && !classad::half_match(slot, job)) return;
      double rank = 0.0;
      switch (rank_plan.kind) {
        case RankPlan::Kind::kZero:
          break;
        case RankPlan::Kind::kConstant:
          rank = rank_plan.constant;
          break;
        case RankPlan::Kind::kAttr: {
          const ResolvedAttr& sa = slot_row[rank_plan.attr_id];
          if (sa.kind == ResolvedAttr::Kind::kNumber) {
            rank = sa.num;
          } else if (sa.kind == ResolvedAttr::Kind::kOpaque) {
            rank = classad::eval_rank(job, slot);
          }
          // kAbsent/kString/kReject: to_number fails → 0.0, like eval_rank
          break;
        }
        case RankPlan::Kind::kFull:
          rank = classad::eval_rank(job, slot);
          break;
      }
      if (best == slots.size() || rank > best_rank) {
        best = i;
        best_rank = rank;
      }
    };
    if (restricted && !jobs[j].changed) {
      for (const std::size_t i : changed_slots) consider(i);
    } else {
      for (std::size_t i = 0; i < slots.size(); ++i) consider(i);
    }
    if (best < slots.size()) {
      used[best] = true;
      --slots_left;
      matches.push_back(Match{*jobs[j].id, *slots[best].ad});
    }
  }
  return matches;
}

std::vector<Match> match_jobs_to_slots(
    const std::vector<IdleJob>& jobs,
    const std::vector<Collector::AdPtr>& slots) {
  std::vector<MatchInput> slot_inputs;
  slot_inputs.reserve(slots.size());
  for (const Collector::AdPtr& slot : slots) {
    slot_inputs.push_back({nullptr, slot.get()});
  }
  return match_jobs_to_slots(job_inputs(jobs), slot_inputs);
}

std::vector<Match> match_jobs_to_slots(
    const std::vector<IdleJob>& jobs,
    const std::vector<classad::ClassAd>& slots) {
  std::vector<MatchInput> slot_inputs;
  slot_inputs.reserve(slots.size());
  for (const classad::ClassAd& slot : slots) {
    slot_inputs.push_back({nullptr, &slot});
  }
  return match_jobs_to_slots(job_inputs(jobs), slot_inputs);
}

}  // namespace condorg::condor
