#include "condorg/sim/network.h"

#include <cmath>
#include <stdexcept>

#include "condorg/sim/det.h"
#include "condorg/sim/schedule_controller.h"

namespace condorg::sim {

Address Address::parse(const std::string& text) {
  const auto pos = text.find('/');
  if (pos == std::string::npos) return Address{text, ""};
  return Address{text.substr(0, pos), text.substr(pos + 1)};
}

std::int64_t Payload::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (const std::exception&) {
    return fallback;
  }
}

std::uint64_t Payload::get_uint(const std::string& key,
                                std::uint64_t fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  try {
    return std::stoull(it->second);
  } catch (const std::exception&) {
    return fallback;
  }
}

double Payload::get_double(const std::string& key, double fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  return util::parse_double(it->second, fallback);
}

bool Payload::get_bool(const std::string& key, bool fallback) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) return fallback;
  return it->second == "1" || it->second == "true";
}

std::string Payload::serialize() const {
  std::string out;
  for (const auto& [key, value] : fields_) {
    if (!out.empty()) out.push_back('\x1e');
    out += key;
    out.push_back('\x1f');
    out += value;
  }
  return out;
}

Payload Payload::deserialize(const std::string& text) {
  Payload payload;
  if (text.empty()) return payload;
  for (const std::string& pair : util::split(text, '\x1e')) {
    const auto sep = pair.find('\x1f');
    if (sep == std::string::npos) continue;
    payload.fields_[pair.substr(0, sep)] = pair.substr(sep + 1);
  }
  return payload;
}

std::string Payload::debug_string() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    if (!first) out += ", ";
    first = false;
    out += key + "=" + value;
  }
  out += "}";
  return out;
}

Network::Network(Simulation& sim,
                 std::function<Host*(const std::string&)> resolver)
    : sim_(sim), resolver_(std::move(resolver)) {}

std::pair<std::string, std::string> Network::ordered(const std::string& a,
                                                     const std::string& b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}

void Network::set_link(const std::string& a, const std::string& b,
                       const LinkConfig& config) {
  links_[ordered(a, b)] = config;
  if (topology_listener_) topology_listener_();
}

util::Rng& Network::send_rng(const std::string& host) {
  std::lock_guard<std::mutex> lock(send_rng_mu_);
  const auto it = send_rngs_.find(host);
  if (it != send_rngs_.end()) return it->second;
  // make_rng derives the stream purely from the root seed and the name, so
  // lazy creation order (which varies with the worker interleaving) does
  // not affect the draws. std::map nodes are stable: the reference survives
  // later insertions, and only this host's island ever advances the stream.
  return send_rngs_.emplace(host, sim_.make_rng("network/send/" + host))
      .first->second;
}

const LinkConfig& Network::link(const std::string& a,
                                const std::string& b) const {
  if (links_.empty()) return default_link_;
  const auto it = links_.find(ordered(a, b));
  return it == links_.end() ? default_link_ : it->second;
}

void Network::set_partitioned(const std::string& a, const std::string& b,
                              bool value) {
  if (value) {
    partitions_.insert(ordered(a, b));
  } else {
    partitions_.erase(ordered(a, b));
  }
}

bool Network::partitioned(const std::string& a, const std::string& b) const {
  // The common case, on every send and delivery: no fault is in force.
  if (partitions_.empty() && isolated_.empty()) return false;
  return partitions_.count(ordered(a, b)) > 0 || isolated_.count(a) > 0 ||
         isolated_.count(b) > 0;
}

void Network::set_isolated(const std::string& host, bool isolated) {
  if (isolated) {
    isolated_.insert(host);
  } else {
    isolated_.erase(host);
  }
}

bool Network::isolated(const std::string& host) const {
  return isolated_.count(host) > 0;
}

void Network::send(Message message) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  util::Rng& rng = send_rng(message.from.host);
  // Local delivery (same host) bypasses the WAN: no loss, tiny latency.
  const bool local = message.from.host == message.to.host;
  const LinkConfig* cfg = nullptr;  // the WAN link, looked up once
  if (!local) {
    if (partitioned(message.from.host, message.to.host)) {
      blocked_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    cfg = &link(message.from.host, message.to.host);
    if (cfg->loss_probability > 0.0 && rng.chance(cfg->loss_probability)) {
      lost_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  double latency;
  if (local) {
    latency = 1e-4;
  } else if (const ScheduleController* ctl = sim_.controller()) {
    // Exploration mode: snap delivery up to the next quantum boundary (and
    // skip the jitter draw) so concurrently in-flight messages tie on their
    // delivery timestamp — the controller then permutes delivery order via
    // the kernel's choice point.
    const double quantum = ctl->delivery_quantum();
    const double raw = sim_.now() + cfg->latency;
    latency = std::ceil(raw / quantum) * quantum - sim_.now();
    if (latency <= 0.0) latency = quantum;
  } else {
    latency = cfg->latency +
              (cfg->jitter > 0.0 ? rng.uniform(0.0, cfg->jitter) : 0.0);
  }
  // A host the resolver cannot find is a dead destination at once, under
  // either executor: nothing is scheduled. The draws above are already
  // made, so the sender's RNG stream does not depend on the destination.
  Host* dest = resolver_(message.to.host);
  if (dest == nullptr) {
    dead_destination_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Deliveries target the destination host's kernel queue; when that queue
  // lives on another island the kernel routes through the island inbox.
  // Hosts are never removed, so `dest` is still valid at delivery.
  const std::uint32_t queue = dest->queue();
  sim_.schedule_cross(
      queue, sim_.now() + latency, [this, dest, message = std::move(message)] {
    // Partition may have appeared while in flight.
    if (message.from.host != message.to.host &&
        partitioned(message.from.host, message.to.host)) {
      blocked_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (!dest->alive()) {
      dead_destination_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const Host::Handler* handler = dest->find_service(message.to.service);
    if (handler == nullptr) {
      dead_destination_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    delivered_.fetch_add(1, std::memory_order_relaxed);
    {
      // DetSan: the handler runs on the destination host. The tap is a
      // harness observer and stays outside the stamped scope.
      det::ScopedHost scope(dest);
      Profiler& profiler = sim_.profiler();
      if (profiler.enabled()) {
        const std::uint64_t start = Profiler::clock_ns();
        (*handler)(message);
        profiler.record_message(message, Profiler::clock_ns() - start);
      } else {
        (*handler)(message);
      }
    }
    if (tap_) tap_(message);
  });
}

double Network::transfer_seconds(const std::string& a, const std::string& b,
                                 std::uint64_t bytes) const {
  if (a == b) return 1e-4;
  const LinkConfig& cfg = link(a, b);
  return cfg.latency + static_cast<double>(bytes) * 8.0 / cfg.bandwidth_bps;
}

}  // namespace condorg::sim
