// One liveness loop per peer (§4.2: the agent "detects ... by probing").
//
// An owner watches keys (job ids) under a peer: a site's Gatekeeper for the
// GridManager, an execute host's responder for a runner's Shadows. Each peer
// with something to watch gets one probe per interval that covers all of
// its keys, however many there are:
//
//   * the first watch() of a peer arms its loop after the given delay;
//   * each firing asks the owner's filter, ask(), about every watched key:
//     it names what to ask the peer about that key (a GRAM contact, a
//     Startd), or rejects the key, which is then dropped. The loop ends
//     when none is left; otherwise the owner's send() makes one request
//     for the kept keys;
//   * the owner reports whether the peer answered, and the loop re-arms
//     after `interval` if it did and after `retry` if it was silent. What
//     an answer means for each key (the owner's recovery ladder) stays with
//     the owner;
//   * unwatch() drops a key at once, and ends an armed loop whose set it
//     empties; a loop whose probe is in flight ends when the answer lands;
//   * a crash of the owner's host ends every loop: armed timers are fenced
//     by the epoch, in-flight requests die with their RpcClient, and the
//     watch sets are cleared, so the next watch starts a fresh loop.
//
// The largest key list sent is kept as the gauge probe_keys_max{owner=...}
// (for as many owners as the registry's label cap admits): a reply grows
// with the keys asked, and the network does not model size.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/util/metrics.h"

namespace condorg::sim {

class ProbeLoop {
 public:
  /// What to ask `peer` about `key`; nullopt when it needs no more
  /// watching.
  using Ask = std::function<std::optional<std::string>(const std::string& peer,
                                                       std::uint64_t key)>;
  /// The owner's report on one probe: did the peer answer?
  using Answered = std::function<void(bool answered)>;
  /// Send one probe to `peer` for `keys` (in key order), asking `asks[i]`
  /// about `keys[i]`; call `answered` exactly once, after the reply or its
  /// timeout has been handled.
  using Send = std::function<void(
      const std::string& peer, std::vector<std::uint64_t> keys,
      std::vector<std::string> asks, Answered answered)>;

  /// `owner` labels the gauge; `label` names the watch sets for DetSan.
  ProbeLoop(Host& host, std::string owner, const char* label, double interval,
            double retry, Ask ask, Send send);
  ~ProbeLoop();

  ProbeLoop(const ProbeLoop&) = delete;
  ProbeLoop& operator=(const ProbeLoop&) = delete;

  /// Watch `key` under `peer`, arming the peer's loop after `delay` unless
  /// it is already running.
  void watch(std::uint64_t key, const std::string& peer, double delay);
  /// Stop watching `key` under `peer` (a no-op when it is not watched).
  void unwatch(std::uint64_t key, const std::string& peer);

  bool watching(const std::string& peer, std::uint64_t key) const;
  /// Calls `fn(peer, key)` for every watched key, in (peer, key) order.
  void for_each(
      const std::function<void(const std::string&, std::uint64_t)>& fn) const;
  /// Peers whose loop is armed or in flight.
  std::size_t loops() const { return loops_->size(); }
  std::uint64_t probes_sent() const { return probes_; }

 private:
  struct Loop {
    std::set<std::uint64_t> keys;
    EventId timer = kInvalidEvent;  // kInvalidEvent while a probe is out
  };

  /// One probe of `peer`; re-arms itself from the owner's report.
  void fire(const std::string& peer);

  Host& host_;
  std::string owner_;
  double interval_;
  double retry_;
  Ask ask_;
  Send send_;
  det::HostLocal<std::map<std::string, Loop>> loops_;
  std::uint64_t probes_ = 0;
  std::size_t max_keys_ = 0;  // the largest key list one probe has carried
  util::Gauge* max_keys_gauge_ = nullptr;
  int crash_listener_ = 0;
};

}  // namespace condorg::sim
