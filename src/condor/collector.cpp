#include "condorg/condor/collector.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "condorg/classad/parser.h"
#include "condorg/util/rng.h"

namespace condorg::condor {

Collector::Collector(sim::Host& host, sim::Network& network)
    : host_(host),
      network_(network),
      entries_(host, "collector.entries"),
      expiry_heap_(host, "collector.expiry_heap"),
      change_seq_(host, "collector.change_seq", 0),
      noop_updates_(host, "collector.noop_updates", 0),
      noop_counter_(host.metrics().counter("collector_noop_updates",
                                           {{"host", host.name()}})) {
  install();
  boot_id_ = host_.add_boot([this] { install(); });
  crash_listener_ = host_.add_crash_listener([this] {
    entries_->clear();
    expiry_heap_->clear();
    // The sequence resets with the incarnation, as does the colocated
    // PoolNegotiator's last-seen one.
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
    const auto push_deadline = [this](sim::Time when, const std::string& n) {
      expiry_heap_->push_back(Deadline{when, n});
      std::push_heap(expiry_heap_->begin(), expiry_heap_->end(),
                     [](const Deadline& a, const Deadline& b) {
                       return a.after(b);
                     });
    };
    const auto it = entries_->find(name);
    if (it != entries_->end() && it->second.checksum == checksum) {
      // Content-identical re-publish: refresh the lease, leave the change
      // sequence alone.
      it->second.expires_at = expires_at;
      push_deadline(expires_at, name);
      ++*noop_updates_;
      noop_counter_.inc();
      ++ads_received_;
      return;
    }
    try {
      Entry entry;
      entry.ad = std::make_shared<const classad::ClassAd>(
          classad::parse_ad(raw));
      entry.seq = ++*change_seq_;
      entry.expires_at = expires_at;
      entry.checksum = checksum;
      push_deadline(expires_at, name);
      (*entries_)[name] = std::move(entry);
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
  // Advertise traffic is one-way (UDP-like), so there is no error reply to
  // send; count the drop instead of losing it silently.
  host_.metrics()
      .counter("unknown_message",
               {{"daemon", "collector"}, {"type", message.type}})
      .inc();
}

void Collector::prune() const {
  const sim::Time now = host_.now();
  const auto after = [](const Deadline& a, const Deadline& b) {
    return a.after(b);
  };
  while (!expiry_heap_->empty() && expiry_heap_->front().when <= now) {
    std::pop_heap(expiry_heap_->begin(), expiry_heap_->end(), after);
    const Deadline deadline = std::move(expiry_heap_->back());
    expiry_heap_->pop_back();
    const auto it = entries_->find(deadline.name);
    // Stale node if the name was re-advertised with a later deadline (the
    // newer node is still in the heap) or explicitly invalidated.
    if (it != entries_->end() && it->second.expires_at <= now) {
      ++*change_seq_;
      entries_->erase(it);
    }
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
  // No deadline: prune() never expires it.
  entry.expires_at = std::numeric_limits<sim::Time>::infinity();
  entry.checksum = 0;
}

void Collector::invalidate(const std::string& name) {
  const auto it = entries_->find(name);
  if (it == entries_->end()) return;
  ++*change_seq_;
  entries_->erase(it);
}

}  // namespace condorg::condor
