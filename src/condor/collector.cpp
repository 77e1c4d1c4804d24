#include "condorg/condor/collector.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "condorg/classad/parser.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/rng.h"

namespace condorg::condor {

namespace {

// Min-heap order of the expiry heap.
constexpr auto kLater = [](const auto& a, const auto& b) { return a.after(b); };

}  // namespace

Collector::Collector(sim::Host& host, sim::Network& network)
    : host_(host),
      network_(network),
      entries_(host, "collector.entries"),
      expiry_heap_(host, "collector.expiry_heap"),
      change_seq_(host, "collector.change_seq", 0),
      noop_updates_(host, "collector.noop_updates", 0),
      user_names_(host, "collector.user_names"),
      user_ids_(host, "collector.user_ids"),
      slot_constraint_(classad::parse_expr(kSlotConstraint)),
      noop_counter_(host.metrics().counter("collector_noop_updates",
                                           {{"host", host.name()}})) {
  install();
  boot_id_ = host_.add_boot([this] { install(); });
  crash_listener_ = host_.add_crash_listener([this] {
    entries_->clear();
    expiry_heap_->clear();
    // The sequence resets with the incarnation, as does the colocated
    // PoolNegotiator's last-seen one. The user dictionary survives: the
    // negotiator's fair-share rows are indexed by its ids.
    *change_seq_ = 0;
  });
}

Collector::~Collector() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive()) host_.unregister_service(kService);
}

void Collector::install() {
  host_.register_service(kService,
                         [this](const sim::Message& m) { on_message(m); });
}

void Collector::on_message(const sim::Message& message) {
  if (message.type == "collector.advertise") {
    const std::string name = message.body.get("name");
    if (name.empty()) return;
    const std::string raw = message.body.get("ad");
    const std::uint64_t checksum = util::fnv1a(raw);
    const sim::Time expires_at =
        host_.now() + message.body.get_double("ttl", 900.0);
    // A lease change moves expires_at only: the name's queued node follows
    // it when it fires (prune). Only a shorter lease needs an earlier node.
    const auto set_lease = [&](Entry& entry) {
      entry.expires_at = expires_at;
      if (expires_at < entry.queued_at) {
        entry.queued_at = expires_at;
        push_deadline(expires_at, name);
      }
    };
    const auto it = entries_->find(name);
    if (it != entries_->end() && it->second.checksum == checksum) {
      // Content-identical re-publish: refresh the lease, leave the change
      // sequence and the classification alone.
      set_lease(it->second);
      ++*noop_updates_;
      noop_counter_.inc();
      ++ads_received_;
      return;
    }
    try {
      auto ad = std::make_shared<const classad::ClassAd>(
          classad::parse_ad(raw));
      Entry& entry = it != entries_->end() ? it->second : (*entries_)[name];
      entry.ad = std::move(ad);
      entry.seq = ++*change_seq_;
      entry.checksum = checksum;
      classify(entry);
      set_lease(entry);
      ++ads_received_;
    } catch (const classad::ParseError&) {
      // Drop malformed ads silently (UDP-like semantics in real Condor).
    }
    return;
  }
  if (message.type == "collector.invalidate") {
    invalidate(message.body.get("name"));
    return;
  }
  // Advertise traffic is one-way (UDP-like): count the drop instead of
  // losing it silently.
  sim::rpc_unknown(host_, network_, message, address(), "collector");
}

void Collector::push_deadline(sim::Time when, const std::string& name) const {
  expiry_heap_->push_back(Deadline{when, name});
  std::push_heap(expiry_heap_->begin(), expiry_heap_->end(), kLater);
}

void Collector::prune() const {
  const sim::Time now = host_.now();
  std::vector<Deadline>& heap = *expiry_heap_;
  while (!heap.empty() && heap.front().when <= now) {
    std::pop_heap(heap.begin(), heap.end(), kLater);
    Deadline& node = heap.back();
    const auto it = entries_->find(node.name);
    // Discard the node of an invalidated name, or one that an earlier
    // deadline superseded.
    if (it != entries_->end() && it->second.queued_at == node.when) {
      Entry& entry = it->second;
      if (entry.expires_at > now) {
        // The lease was refreshed since the node was queued: follow it.
        node.when = entry.queued_at = entry.expires_at;
        std::push_heap(heap.begin(), heap.end(), kLater);
        continue;
      }
      ++*change_seq_;
      entries_->erase(it);
    }
    heap.pop_back();
  }
}

std::vector<Collector::AdPtr> Collector::query(
    const classad::ExprPtr& constraint) const {
  prune();
  std::vector<AdPtr> out;
  out.reserve(entries_->size());
  for (const auto& [name, entry] : *entries_) {
    if (constraint) {
      const classad::Value v = constraint->evaluate(entry.ad.get(), nullptr);
      if (!v.is_bool() || !v.as_bool()) continue;
    }
    out.push_back(entry.ad);
  }
  return out;
}

const std::map<std::string, Collector::Entry>& Collector::live_ads()
    const {
  prune();
  return *entries_;
}

std::size_t Collector::live_count() const {
  prune();
  return entries_->size();
}

void Collector::put_local(const std::string& name, AdPtr ad) {
  Entry& entry = (*entries_)[name];
  entry.ad = std::move(ad);
  entry.seq = ++*change_seq_;
  // No lease: prune() never expires it, and any queued node is superseded.
  entry.expires_at = std::numeric_limits<sim::Time>::infinity();
  entry.queued_at = entry.expires_at;
  entry.checksum = 0;
  classify(entry);
}

void Collector::classify(Entry& entry) {
  const classad::ClassAd& ad = *entry.ad;
  if (ad.contains("JobUniverse")) {
    entry.kind = Kind::kJob;
    const std::string user = ad.eval_string("User").value_or("unknown");
    const auto [id, added] = user_ids_->try_emplace(
        user, static_cast<std::uint32_t>(user_names_->size()));
    if (added) user_names_->push_back(user);
    entry.user = id->second;
    return;
  }
  const classad::Value v = slot_constraint_->evaluate(&ad, nullptr);
  entry.kind = v.is_bool() && v.as_bool() ? Kind::kSlot : Kind::kOther;
}

void Collector::invalidate(const std::string& name) {
  const auto it = entries_->find(name);
  if (it == entries_->end()) return;
  ++*change_seq_;
  entries_->erase(it);
}

}  // namespace condorg::condor
