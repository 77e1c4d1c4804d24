#include "condorg/sim/probe_loop.h"

#include <utility>

namespace condorg::sim {

ProbeLoop::ProbeLoop(Host& host, std::string owner, const char* label,
                     double interval, double retry, Ask ask, Send send)
    : host_(host),
      owner_(std::move(owner)),
      interval_(interval),
      retry_(retry),
      ask_(std::move(ask)),
      send_(std::move(send)),
      loops_(host, label) {
  crash_listener_ = host_.add_crash_listener([this] { loops_->clear(); });
}

ProbeLoop::~ProbeLoop() {
  host_.remove_crash_listener(crash_listener_);
  // Armed timers must not fire into a destroyed loop.
  for (const auto& [peer, loop] : *loops_) host_.sim().cancel(loop.timer);
}

void ProbeLoop::watch(std::uint64_t key, const std::string& peer,
                      double delay) {
  const auto [it, first] = loops_->try_emplace(peer);
  it->second.keys.insert(key);
  if (first) {
    it->second.timer = host_.post(delay, [this, peer] { fire(peer); });
  }
}

void ProbeLoop::unwatch(std::uint64_t key, const std::string& peer) {
  const auto it = loops_->find(peer);
  if (it == loops_->end() || it->second.keys.erase(key) == 0) return;
  if (!it->second.keys.empty() || it->second.timer == kInvalidEvent) return;
  host_.sim().cancel(it->second.timer);
  loops_->erase(it);
}

bool ProbeLoop::watching(const std::string& peer, std::uint64_t key) const {
  const auto it = loops_->find(peer);
  return it != loops_->end() && it->second.keys.count(key) != 0;
}

void ProbeLoop::for_each(
    const std::function<void(const std::string&, std::uint64_t)>& fn) const {
  for (const auto& [peer, loop] : *loops_) {
    for (const std::uint64_t key : loop.keys) fn(peer, key);
  }
}

void ProbeLoop::fire(const std::string& peer) {
  const auto it = loops_->find(peer);
  if (it == loops_->end()) return;
  Loop& loop = it->second;
  loop.timer = kInvalidEvent;
  std::vector<std::uint64_t> keys;
  std::vector<std::string> asks;
  for (auto key = loop.keys.begin(); key != loop.keys.end();) {
    if (std::optional<std::string> ask = ask_(peer, *key)) {
      keys.push_back(*key);
      asks.push_back(std::move(*ask));
      ++key;
    } else {
      key = loop.keys.erase(key);
    }
  }
  if (keys.empty()) {
    loops_->erase(it);  // the loop ends; the next watch starts one
    return;
  }
  ++probes_;
  if (keys.size() > max_keys_) {
    if (max_keys_ == 0) {
      max_keys_gauge_ =
          host_.metrics().own_gauge("probe_keys_max", {{"owner", owner_}});
    }
    max_keys_ = keys.size();
    if (max_keys_gauge_ != nullptr) {
      max_keys_gauge_->set(host_.now(), static_cast<double>(max_keys_));
    }
  }
  send_(peer, std::move(keys), std::move(asks), [this, peer](bool answered) {
    const auto found = loops_->find(peer);
    if (found == loops_->end()) return;
    if (found->second.keys.empty()) {
      loops_->erase(found);  // all unwatched while the probe was out
      return;
    }
    found->second.timer = host_.post(answered ? interval_ : retry_,
                                     [this, peer] { fire(peer); });
  });
}

}  // namespace condorg::sim
