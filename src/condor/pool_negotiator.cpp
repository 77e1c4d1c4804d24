#include "condorg/condor/pool_negotiator.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "condorg/classad/parser.h"
#include "condorg/sim/rpc.h"

namespace condorg::condor {

namespace {

std::string user_of(const classad::ClassAd& job) {
  return job.eval_string("User").value_or("unknown");
}

}  // namespace

PoolNegotiator::PoolNegotiator(sim::Host& host, sim::Network& network,
                               Collector& collector, Options options)
    : PoolNegotiator(host, collector, nullptr, nullptr, std::move(options)) {
  // The owning PoolRunner named itself in the job ad.
  sink_ = [rpc = std::make_shared<sim::RpcClient>(host, network, kService)](
              const Match& match, const classad::ClassAd& job) {
    const auto runner = job.eval_string("MyAddress");
    if (!runner) return;
    sim::Payload payload;
    payload.set("job", match.job_id);
    payload.set("user", user_of(job));
    payload.set("slot_name", match.slot_ad.eval_string("Name").value_or(""));
    payload.set("slot_address",
                match.slot_ad.eval_string("MyAddress").value_or(""));
    rpc->notify(sim::Address::parse(*runner), "negotiator.match",
                std::move(payload));
  };
}

PoolNegotiator::PoolNegotiator(sim::Host& host, Collector& collector,
                               Sync sync, MatchSink sink, Options options)
    : host_(host),
      collector_(collector),
      sync_(std::move(sync)),
      sink_(std::move(sink)),
      options_(std::move(options)),
      slot_constraint_(classad::parse_expr(kSlotConstraint)),
      holds_(host, "pool_negotiator.holds"),
      last_seq_(host, "pool_negotiator.last_seq", 0),
      fair_share_(host, "pool_negotiator.fair_share"),
      matched_by_user_(host, "pool_negotiator.matched_by_user"),
      violations_(host, "pool_negotiator.violations"),
      cycles_(host, "pool_negotiator.cycles", 0),
      matches_(host, "pool_negotiator.matches", 0),
      skipped_cycles_(host, "pool_negotiator.skipped_cycles", 0),
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
    // The colocated Collector loses its ads and resets its sequence in the
    // same crash.
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
}

std::size_t PoolNegotiator::negotiate_once() {
  const double now = host_.now();
  ++*cycles_;
  cycles_counter_.inc();
  if (sync_) sync_();
  const std::uint64_t t0 = clock_ ? clock_() : 0;

  // The read prunes first, so TTL expiries have bumped the sequence.
  const std::map<std::string, Collector::Entry>& ads = collector_.live_ads();
  const std::uint64_t since = *last_seq_;
  *last_seq_ = collector_.change_seq();

  // A hold ends when its ad changed or vanished since the last cycle (the
  // claim showed up, or the ad died), or when it lapses (a lost claim or
  // match notify): a lapsed ad re-enters negotiation as changed. Walking
  // the hold index keeps this O(active holds), not O(pool).
  std::vector<std::string> lapsed;  // in name order, as holds_ is
  for (auto it = holds_->begin(); it != holds_->end();) {
    const auto ad = ads.find(it->first);
    if (ad == ads.end() || ad->second.seq > since) {
      it = holds_->erase(it);
    } else if (it->second <= now) {
      lapsed.push_back(it->first);
      it = holds_->erase(it);
    } else {
      ++it;
    }
  }

  const bool sweep =
      options_.full_sweep_every > 0 &&
      *cycles_ % static_cast<std::uint64_t>(options_.full_sweep_every) == 0;

  if (since == *last_seq_ && lapsed.empty() && !sweep) {
    // Nothing moved since last cycle: the whole point of the delta path.
    ++*skipped_cycles_;
    skipped_counter_.inc();
    if (clock_) delta_cycle_ns_.push_back(clock_() - t0);
    return 0;
  }

  // Unheld ads are the candidates: job ads (they carry JobUniverse) by
  // user, slots that pass the constraint. Name order throughout; the
  // fair-share table decides the cross-user order.
  std::vector<MatchInput> slots;
  std::map<std::string, std::vector<MatchInput>> by_user;
  auto hold = holds_->begin();
  for (const auto& [name, entry] : ads) {
    while (hold != holds_->end() && hold->first < name) ++hold;
    if (hold != holds_->end() && hold->first == name) continue;  // claimed
    const classad::ClassAd& ad = *entry.ad;
    const bool changed =
        entry.seq > since ||
        std::binary_search(lapsed.begin(), lapsed.end(), name);
    if (ad.contains("JobUniverse")) {
      by_user[user_of(ad)].push_back({&name, &ad, changed});
      continue;
    }
    const classad::Value v = slot_constraint_->evaluate(&ad, nullptr);
    if (!v.is_bool() || !v.as_bool()) continue;
    slots.push_back({&name, &ad, changed});
  }
  std::vector<MatchInput> jobs;
  for (const auto& [user, pending] : by_user) fair_share_->note_user(user);
  for (const std::string& user : fair_share_->priority_order(now)) {
    const auto it = by_user.find(user);
    if (it == by_user.end()) continue;
    jobs.insert(jobs.end(), it->second.begin(), it->second.end());
  }
  const std::vector<Match> matched =
      match_jobs_to_slots(jobs, slots, /*restricted=*/true);
  if (clock_) delta_cycle_ns_.push_back(clock_() - t0);

  if (sweep) run_sweep(matched, jobs, slots);

  // Hold both sides of each match and hand it to the sink.
  std::set<std::string> matched_users;
  for (const Match& match : matched) {
    const classad::ClassAd& job = *ads.at(match.job_id).ad;
    const std::string user = user_of(job);
    (*holds_)[match.job_id] = now + options_.hold_timeout;
    const auto slot_name = match.slot_ad.eval_string("Name");
    if (slot_name && ads.count(*slot_name) != 0) {
      (*holds_)[*slot_name] = now + options_.hold_timeout;
    }
    ++(*matched_by_user_)[user];
    fair_share_->charge(user, 1.0, now);
    matched_users.insert(user);
    ++*matches_;
    matches_counter_.inc();
    sink_(match, job);
  }

  // Starvation bookkeeping: a user whose pending jobs were candidates and
  // won nothing lost a real negotiation round.
  for (const auto& [user, pending] : by_user) {
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
