// Simulated wide-area network.
//
// Models the properties the paper's protocols are designed around:
//   * per-link latency (base + jitter) and bandwidth,
//   * message loss (motivates GRAM's two-phase commit),
//   * partitions (failure type F4: "failures in the network connecting the
//     two machines"), and
//   * destination crashes between send and delivery.
//
// Delivery is best-effort datagram semantics; reliability is built *above*
// this layer by the protocols, as in the real system.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "condorg/sim/host.h"
#include "condorg/sim/message.h"
#include "condorg/sim/simulation.h"

namespace condorg::sim {

struct LinkConfig {
  double latency = 0.05;           // one-way base latency, seconds
  double jitter = 0.01;            // uniform extra latency in [0, jitter)
  double loss_probability = 0.0;   // per-message drop chance
  double bandwidth_bps = 1.0e8;    // for bulk-transfer duration modelling
};

class Network {
 public:
  Network(Simulation& sim, std::function<Host*(const std::string&)> resolver);

  /// Default link parameters for pairs without an explicit override.
  void set_default_link(const LinkConfig& config) {
    default_link_ = config;
    if (topology_listener_) topology_listener_();
  }
  const LinkConfig& default_link() const { return default_link_; }

  /// Override parameters for a specific (unordered) host pair.
  void set_link(const std::string& a, const std::string& b,
                const LinkConfig& config);
  const LinkConfig& link(const std::string& a, const std::string& b) const;

  /// All explicitly configured links (IslandPlanner reads these to group
  /// hosts joined by zero-lookahead links and to bound the lookahead).
  const std::map<std::pair<std::string, std::string>, LinkConfig>& links()
      const {
    return links_;
  }

  /// Invoked whenever link latencies change (set_default_link / set_link) —
  /// sim::World forwards this to Simulation::notify_topology_changed so the
  /// island plan is rebuilt at the next synchronization point.
  void set_topology_listener(std::function<void()> listener) {
    topology_listener_ = std::move(listener);
  }

  /// Sever / heal connectivity between two hosts (both directions).
  void set_partitioned(const std::string& a, const std::string& b,
                       bool partitioned);
  bool partitioned(const std::string& a, const std::string& b) const;

  /// Isolate a host from everyone (models an unplugged site).
  void set_isolated(const std::string& host, bool isolated);
  bool isolated(const std::string& host) const;

  /// Send a message. Returns immediately; the message is delivered after the
  /// link latency unless it is lost, a partition blocks it, or the
  /// destination host is down / lacks the service at delivery time. A host
  /// the world does not know is a dead destination at send time.
  void send(Message message);

  /// Seconds a bulk transfer of `bytes` takes on the link a->b (latency +
  /// bytes/bandwidth). Loss/partition checks still apply to the messages
  /// that initiate such transfers.
  double transfer_seconds(const std::string& a, const std::string& b,
                          std::uint64_t bytes) const;

  // --- delivery statistics (for tests and benches) ---
  // Relaxed atomics: sends and deliveries run concurrently on island
  // workers; each counter is an independent tally, no ordering is implied.
  std::uint64_t sent() const { return sent_.load(std::memory_order_relaxed); }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  std::uint64_t lost() const { return lost_.load(std::memory_order_relaxed); }
  std::uint64_t blocked_by_partition() const {
    return blocked_.load(std::memory_order_relaxed);
  }
  std::uint64_t dead_destination() const {
    return dead_destination_.load(std::memory_order_relaxed);
  }

  /// Optional tap invoked for every successfully delivered message
  /// (after the handler). Used by protocol traces in tests.
  void set_delivery_tap(std::function<void(const Message&)> tap) {
    tap_ = std::move(tap);
  }

 private:
  static std::pair<std::string, std::string> ordered(const std::string& a,
                                                     const std::string& b);

  /// The loss/jitter stream for messages sent *by* `host`. One shared
  /// stream would be a data race (and a thread-count dependence) once
  /// islands send concurrently; per-sender streams are seeded by name
  /// ("network/send/<host>"), so each draw depends only on that host's own
  /// deterministic send sequence.
  util::Rng& send_rng(const std::string& host);

  Simulation& sim_;
  std::function<Host*(const std::string&)> resolver_;
  LinkConfig default_link_;
  std::map<std::pair<std::string, std::string>, LinkConfig> links_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::set<std::string> isolated_;
  std::function<void(const Message&)> tap_;
  std::function<void()> topology_listener_;

  std::mutex send_rng_mu_;  // guards lazy insertion into send_rngs_ only
  std::map<std::string, util::Rng> send_rngs_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> lost_{0};
  std::atomic<std::uint64_t> blocked_{0};
  std::atomic<std::uint64_t> dead_destination_{0};
};

}  // namespace condorg::sim
