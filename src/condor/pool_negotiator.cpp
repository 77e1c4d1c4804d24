#include "condorg/condor/pool_negotiator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "condorg/sim/rpc.h"

namespace condorg::condor {

PoolNegotiator::PoolNegotiator(sim::Host& host, sim::Network& network,
                               Collector& collector, Options options)
    : PoolNegotiator(host, collector, nullptr, nullptr, std::move(options)) {
  // The owning PoolRunner named itself in the job ad.
  sink_ = [rpc = std::make_shared<sim::RpcClient>(host, network, kService)](
              const Match& match, const Collector::Entry& job) {
    const auto runner = job.ad->eval_string("MyAddress");
    if (!runner) return;
    sim::Payload payload;
    payload.set("job", match.job_id);
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
      holds_(host, "pool_negotiator.holds"),
      last_seq_(host, "pool_negotiator.last_seq", 0),
      fair_share_(host, "pool_negotiator.fair_share"),
      candidates_(host, "pool_negotiator.candidates"),
      matched_(host, "pool_negotiator.matched"),
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

  // Users the Collector met since the last cycle join the fair-share table
  // in id order, so a Collector user id is a row there too.
  for (auto id = static_cast<std::uint32_t>(fair_share_->user_count());
       id < collector_.user_count(); ++id) {
    fair_share_->add_user(collector_.user_name(id));
    candidates_->emplace_back();
    matched_->push_back(0);
  }

  // Unheld ads are the candidates, as the Collector classified them: job
  // ads in their user's bucket, and negotiable slots. Name order
  // throughout; the fair-share table decides the cross-user order.
  std::vector<MatchInput> slots;
  std::vector<batch::FairShareTable::UserId> candidate_users;
  auto hold = holds_->begin();
  for (const auto& [name, entry] : ads) {
    if (entry.kind == Collector::Kind::kOther) continue;
    while (hold != holds_->end() && hold->first < name) ++hold;
    if (hold != holds_->end() && hold->first == name) continue;  // claimed
    const MatchInput input{
        &name, entry.ad.get(),
        entry.seq > since ||
            std::binary_search(lapsed.begin(), lapsed.end(), name)};
    if (entry.kind == Collector::Kind::kSlot) {
      slots.push_back(input);
      continue;
    }
    std::vector<MatchInput>& bucket = (*candidates_)[entry.user];
    if (bucket.empty()) candidate_users.push_back(entry.user);
    bucket.push_back(input);
  }
  fair_share_->order(candidate_users, now);
  std::vector<MatchInput> jobs;
  for (const auto user : candidate_users) {
    std::vector<MatchInput>& bucket = (*candidates_)[user];
    jobs.insert(jobs.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  const std::vector<Match> matched =
      match_jobs_to_slots(jobs, slots, /*restricted=*/true);
  if (clock_) delta_cycle_ns_.push_back(clock_() - t0);

  if (sweep) run_sweep(matched, jobs, slots);

  // Starvation bookkeeping: a user whose jobs were candidates lost a real
  // negotiation round unless one of them matched. So every candidate user
  // starves here, and each match below serves its user again.
  for (const auto user : candidate_users) fair_share_->note_starved(user);

  // Hold both sides of each match and hand it to the sink.
  for (const Match& match : matched) {
    const Collector::Entry& job = ads.at(match.job_id);
    (*holds_)[match.job_id] = now + options_.hold_timeout;
    const auto slot_name = match.slot_ad.eval_string("Name");
    if (slot_name && ads.count(*slot_name) != 0) {
      (*holds_)[*slot_name] = now + options_.hold_timeout;
    }
    ++(*matched_)[job.user];
    fair_share_->charge(job.user, 1.0, now);
    fair_share_->note_served(job.user);
    ++*matches_;
    matches_counter_.inc();
    sink_(match, job);
  }
  return matched.size();
}

std::map<std::string, std::uint64_t> PoolNegotiator::matched_by_user() const {
  std::map<std::string, std::uint64_t> out;
  for (std::uint32_t id = 0; id < matched_->size(); ++id) {
    if ((*matched_)[id] != 0) out[fair_share_->name(id)] = (*matched_)[id];
  }
  return out;
}

void PoolNegotiator::audit(std::vector<std::string>& out) const {
  for (const std::string& violation : *violations_) out.push_back(violation);
}

}  // namespace condorg::condor
