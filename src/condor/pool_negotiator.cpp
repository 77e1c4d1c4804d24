#include "condorg/condor/pool_negotiator.h"

#include <algorithm>
#include <set>
#include <utility>

#include "condorg/classad/parser.h"

namespace condorg::condor {

PoolNegotiator::PoolNegotiator(sim::Host& host, sim::Network& network,
                               Collector& collector, Options options)
    : host_(host),
      collector_(collector),
      options_(std::move(options)),
      slot_constraint_(options_.slot_constraint.empty()
                           ? nullptr
                           : classad::parse_expr(options_.slot_constraint)),
      rpc_(host, network, kService),
      mirror_(host, "pool_negotiator.mirror"),
      holds_(host, "pool_negotiator.holds"),
      last_seq_(host, "pool_negotiator.last_seq", 0),
      fair_share_(host, "pool_negotiator.fair_share", options_.fair_share),
      matched_by_user_(host, "pool_negotiator.matched_by_user"),
      violations_(host, "pool_negotiator.violations"),
      cycles_(host, "pool_negotiator.cycles", 0),
      matches_(host, "pool_negotiator.matches", 0),
      skipped_cycles_(host, "pool_negotiator.skipped_cycles", 0),
      full_resyncs_(host, "pool_negotiator.full_resyncs", 0),
      sweeps_(host, "pool_negotiator.sweeps", 0),
      divergences_(host, "pool_negotiator.divergences", 0),
      cycles_counter_(host.metrics().counter("pool_negotiator.cycles",
                                             {{"host", host.name()}})),
      matches_counter_(host.metrics().counter("pool_negotiator.matches",
                                              {{"host", host.name()}})),
      skipped_counter_(host.metrics().counter("pool_negotiator.skipped_cycles",
                                              {{"host", host.name()}})),
      divergence_counter_(host.metrics().counter(
          "pool_negotiator.divergences", {{"host", host.name()}})) {
  boot_id_ = host_.add_boot([this] {
    if (started_) cycle();
  });
  crash_listener_ = host_.add_crash_listener([this] {
    // The mirror is volatile; the colocated Collector resets its sequence
    // in the same crash, so the first post-boot cycle resyncs cleanly.
    mirror_->clear();
    holds_->clear();
    *last_seq_ = 0;
  });
}

PoolNegotiator::~PoolNegotiator() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
}

void PoolNegotiator::start() {
  if (started_) return;
  started_ = true;
  cycle();
}

void PoolNegotiator::cycle() {
  negotiate_once();
  host_.post(options_.cycle_period, life_.wrap([this] { cycle(); }));
}

bool PoolNegotiator::classify_job(const classad::ClassAd& ad,
                                  std::string& user) {
  if (!ad.eval_string("JobUniverse")) return false;
  user = ad.eval_string("User").value_or("unknown");
  return true;
}

bool PoolNegotiator::slot_eligible(const MirrorEntry& entry,
                                   double now) const {
  if (entry.is_job) return false;
  if (entry.hold_until > now) return false;  // claim in flight
  if (slot_constraint_) {
    const classad::Value v =
        slot_constraint_->evaluate(entry.ad.get(), nullptr);
    if (!v.is_bool() || !v.as_bool()) return false;
  }
  return true;
}

bool PoolNegotiator::job_pending(const MirrorEntry& entry, double now) const {
  return entry.is_job && !(entry.hold_until > now);
}

void PoolNegotiator::resync() {
  // Holds are negotiator-local state the Collector knows nothing about;
  // carry live ones across the rebuild (dropping holds on ads the
  // Collector no longer has).
  const std::map<std::string, double> holds = *holds_;
  holds_->clear();
  mirror_->clear();
  for (const auto& [name, checksum] : collector_.checksums()) {
    const Collector::AdPtr ad = collector_.lookup(name);
    if (!ad) continue;
    MirrorEntry entry;
    entry.ad = ad;
    entry.checksum = checksum;
    entry.is_job = classify_job(*ad, entry.user);
    if (entry.is_job) fair_share_->note_user(entry.user);
    const auto hold = holds.find(name);
    if (hold != holds.end()) {
      entry.hold_until = hold->second;
      (*holds_)[name] = hold->second;
    }
    (*mirror_)[name] = std::move(entry);
  }
  *last_seq_ = collector_.change_seq();
}

std::vector<std::string> PoolNegotiator::ingest_deltas(bool& resynced) {
  std::vector<std::string> changed;
  std::vector<Collector::Delta> deltas;
  if (!collector_.query_delta(*last_seq_, deltas)) {
    resync();
    resynced = true;
    ++*full_resyncs_;
    return changed;
  }
  for (Collector::Delta& delta : deltas) {
    changed.push_back(delta.name);
    if (!delta.ad) {
      mirror_->erase(delta.name);
      holds_->erase(delta.name);
      continue;
    }
    MirrorEntry entry;
    entry.ad = std::move(delta.ad);
    entry.checksum = delta.checksum;
    entry.is_job = classify_job(*entry.ad, entry.user);
    if (entry.is_job) fair_share_->note_user(entry.user);
    // Replacement clears any hold: a changed ad re-enters negotiation.
    (*mirror_)[delta.name] = std::move(entry);
    holds_->erase(delta.name);
  }
  if (!deltas.empty()) *last_seq_ = deltas.back().seq;
  return changed;
}

std::vector<MatchInput> PoolNegotiator::eligible_slots(
    const std::vector<std::string>& changed, bool all_changed,
    double now) const {
  std::vector<MatchInput> out;
  for (const auto& [name, entry] : *mirror_) {
    if (entry.is_job || !slot_eligible(entry, now)) continue;
    out.push_back({&name, entry.ad.get(),
                   all_changed || std::binary_search(changed.begin(),
                                                     changed.end(), name)});
  }
  return out;
}

std::vector<MatchInput> PoolNegotiator::ordered_pending_jobs(
    const std::vector<std::string>& changed, bool all_changed, double now,
    std::set<std::string>& users) {
  // Mirror order gives name order within each user; the fair-share table
  // decides the cross-user order.
  std::map<std::string, std::vector<MatchInput>> by_user;
  for (const auto& [name, entry] : *mirror_) {
    if (!job_pending(entry, now)) continue;
    fair_share_->note_user(entry.user);
    by_user[entry.user].push_back(
        {&name, entry.ad.get(),
         all_changed ||
             std::binary_search(changed.begin(), changed.end(), name)});
  }
  std::vector<MatchInput> out;
  for (const std::string& user : fair_share_->priority_order(now)) {
    const auto it = by_user.find(user);
    if (it == by_user.end()) continue;
    users.insert(user);
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

void PoolNegotiator::record_violation(const std::string& text) {
  ++*divergences_;
  divergence_counter_.inc();
  if (violations_->size() < 32) violations_->push_back(text);
}

void PoolNegotiator::run_sweep(const std::vector<Match>& delta_matches,
                               const std::vector<MatchInput>& jobs,
                               const std::vector<MatchInput>& slots) {
  ++*sweeps_;

  // The delta invariant, checked directly: the restricted pass must make
  // exactly the matches an unrestricted pass of the same matcher makes on
  // the same candidates. The full pass is the timed sweep cost.
  const std::uint64_t t0 = clock_ ? clock_() : 0;
  const std::vector<Match> full = match_jobs_to_slots(jobs, slots);
  if (clock_) reference_cycle_ns_.push_back(clock_() - t0);
  if (full.size() != delta_matches.size()) {
    record_violation("pool_negotiator/match-equivalence: delta made " +
                     std::to_string(delta_matches.size()) +
                     " matches, full scan made " +
                     std::to_string(full.size()));
  } else {
    for (std::size_t i = 0; i < full.size(); ++i) {
      const auto full_slot = full[i].slot_ad.eval_string("Name");
      const auto delta_slot = delta_matches[i].slot_ad.eval_string("Name");
      if (full[i].job_id != delta_matches[i].job_id ||
          full_slot != delta_slot) {
        record_violation(
            "pool_negotiator/match-equivalence: pair " + std::to_string(i) +
            " differs: delta=(" + delta_matches[i].job_id + "," +
            delta_slot.value_or("?") + ") full=(" + full[i].job_id + "," +
            full_slot.value_or("?") + ")");
        break;
      }
    }
  }

  // Mirror state audit: names + content checksums must equal a fresh full
  // read. Divergence is recorded, then repaired so one bug does not poison
  // every later cycle.
  const std::map<std::string, std::uint64_t> truth = collector_.checksums();
  std::vector<std::string> divergent;
  auto mirror_it = mirror_->begin();
  auto truth_it = truth.begin();
  while (mirror_it != mirror_->end() || truth_it != truth.end()) {
    if (truth_it == truth.end() ||
        (mirror_it != mirror_->end() && mirror_it->first < truth_it->first)) {
      record_violation("pool_negotiator/anti-entropy: mirror has stale ad '" +
                       mirror_it->first + "'");
      divergent.push_back(mirror_it->first);
      ++mirror_it;
    } else if (mirror_it == mirror_->end() ||
               truth_it->first < mirror_it->first) {
      record_violation("pool_negotiator/anti-entropy: mirror missing ad '" +
                       truth_it->first + "'");
      divergent.push_back(truth_it->first);
      ++truth_it;
    } else {
      if (mirror_it->second.checksum != truth_it->second) {
        record_violation(
            "pool_negotiator/anti-entropy: mirror content differs for '" +
            mirror_it->first + "'");
        divergent.push_back(mirror_it->first);
      }
      ++mirror_it;
      ++truth_it;
    }
  }
  for (const std::string& name : divergent) {
    holds_->erase(name);  // repair replaces the entry, hold and all
    const Collector::AdPtr ad = collector_.lookup(name);
    if (!ad) {
      mirror_->erase(name);
      continue;
    }
    MirrorEntry entry;
    entry.ad = ad;
    const auto checksum = truth.find(name);
    entry.checksum = checksum == truth.end() ? 0 : checksum->second;
    entry.is_job = classify_job(*ad, entry.user);
    if (entry.is_job) fair_share_->note_user(entry.user);
    (*mirror_)[name] = std::move(entry);
  }
}

std::size_t PoolNegotiator::negotiate_once() {
  const double now = host_.now();
  ++*cycles_;
  cycles_counter_.inc();
  const std::uint64_t t0 = clock_ ? clock_() : 0;

  bool resynced = false;
  std::vector<std::string> changed = ingest_deltas(resynced);

  // Lapsed holds (lost claims / lost match notifies) re-enter negotiation
  // as changed on both sides. The hold index keeps this O(active holds);
  // scanning the whole mirror here would put an O(pool) term back into
  // every delta cycle.
  for (auto it = holds_->begin(); it != holds_->end();) {
    if (it->second <= now) {
      const auto entry = mirror_->find(it->first);
      if (entry != mirror_->end()) entry->second.hold_until = -1.0;
      changed.push_back(it->first);
      it = holds_->erase(it);
    } else {
      ++it;
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  const bool sweep =
      options_.full_sweep_every > 0 &&
      *cycles_ % static_cast<std::uint64_t>(options_.full_sweep_every) == 0;

  if (changed.empty() && !resynced && !sweep) {
    // Nothing moved since last cycle: the whole point of the delta path.
    ++*skipped_cycles_;
    skipped_counter_.inc();
    if (clock_) delta_cycle_ns_.push_back(clock_() - t0);
    return 0;
  }

  std::set<std::string> pending_users;
  const std::vector<MatchInput> slots =
      eligible_slots(changed, resynced, now);
  const std::vector<MatchInput> jobs =
      ordered_pending_jobs(changed, resynced, now, pending_users);
  const std::vector<Match> matched =
      match_jobs_to_slots(jobs, slots, /*restricted=*/true);
  if (clock_) delta_cycle_ns_.push_back(clock_() - t0);

  if (sweep) run_sweep(matched, jobs, slots);

  // Apply match side-effects and hand each match to its owning PoolRunner.
  std::set<std::string> matched_users;
  for (const Match& match : matched) {
    const auto job_it = mirror_->find(match.job_id);
    if (job_it == mirror_->end()) continue;
    MirrorEntry& job = job_it->second;
    job.hold_until = now + options_.hold_timeout;
    (*holds_)[match.job_id] = job.hold_until;
    const auto slot_name = match.slot_ad.eval_string("Name");
    if (slot_name) {
      const auto slot_it = mirror_->find(*slot_name);
      if (slot_it != mirror_->end()) {
        slot_it->second.hold_until = now + options_.hold_timeout;
        (*holds_)[*slot_name] = slot_it->second.hold_until;
      }
    }
    ++(*matched_by_user_)[job.user];
    fair_share_->charge(job.user, 1.0, now);
    matched_users.insert(job.user);
    ++*matches_;
    matches_counter_.inc();
    const auto runner = job.ad->eval_string("MyAddress");
    if (runner) {
      sim::Payload payload;
      payload.set("job", match.job_id);
      payload.set("user", job.user);
      payload.set("slot_name", slot_name.value_or(""));
      payload.set("slot_address",
                  match.slot_ad.eval_string("MyAddress").value_or(""));
      rpc_.notify(sim::Address::parse(*runner), "negotiator.match",
                  std::move(payload));
    }
  }

  // Starvation bookkeeping: a user whose pending jobs were candidates and
  // won nothing lost a real negotiation round.
  for (const std::string& user : pending_users) {
    if (matched_users.count(user)) {
      fair_share_->note_served(user);
    } else {
      fair_share_->note_starved(user);
    }
  }
  return matched.size();
}

void PoolNegotiator::audit(std::vector<std::string>& out) const {
  for (const std::string& violation : *violations_) out.push_back(violation);
}

}  // namespace condorg::condor
