#include "condorg/condor/shadow_monitor.h"

#include <cstdlib>
#include <functional>
#include <utility>

#include "condorg/util/strings.h"

namespace condorg::condor {

ShadowMonitor::ShadowMonitor(sim::Host& host, sim::Network& network,
                             ShadowOptions options)
    : host_(host),
      network_(network),
      options_(options),
      rpc_(host, network, "shadow.monitor.rpc"),
      shadows_(host, "shadow_monitor.shadows"),
      loop_(host, "shadow_monitor." + host.name(), "shadow_monitor.watched",
            options.poll_interval, options.poll_interval,
            std::bind_front(&ShadowMonitor::startd_of, this),
            std::bind_front(&ShadowMonitor::probe, this)) {}

void ShadowMonitor::watch(Shadow& shadow) {
  shadow.monitor_key_ = ++next_key_;
  shadows_->emplace(shadow.monitor_key_, &shadow);
  loop_.watch(shadow.monitor_key_, shadow.responder_.str(),
              options_.poll_interval);
}

void ShadowMonitor::forget(Shadow& shadow) {
  if (shadow.monitor_key_ == 0) return;
  shadows_->erase(shadow.monitor_key_);
  loop_.unwatch(shadow.monitor_key_, shadow.responder_.str());
  shadow.monitor_key_ = 0;
}

std::optional<std::string> ShadowMonitor::startd_of(const std::string&,
                                                    std::uint64_t key) const {
  const auto it = shadows_->find(key);
  if (it == shadows_->end() ||
      it->second->outcome() != Shadow::Outcome::kPending) {
    return std::nullopt;
  }
  return it->second->startd_.service;
}

void ShadowMonitor::probe(const std::string& responder,
                          std::vector<std::uint64_t> keys,
                          std::vector<std::string> startds,
                          sim::ProbeLoop::Answered answered) {
  sim::Payload request;
  request.set("startds", util::join(startds, ","));
  rpc_.call(
      sim::Address::parse(responder), "startd.status_all", std::move(request),
      Shadow::kRpcTimeout,
      [this, keys = std::move(keys), answered = std::move(answered)](
          sim::RpcOutcome outcome, const sim::Payload& reply) {
        const auto states = util::split(reply.get("states"), ',');
        const auto jobs = util::split(reply.get("jobs"), ',');
        const auto work = util::split(reply.get("work"), ',');
        // Anything but a full answer to this question reads as silence.
        const bool heard = outcome == sim::RpcOutcome::kAnswered &&
                           states.size() == keys.size() &&
                           jobs.size() == keys.size() &&
                           work.size() == keys.size();
        for (std::size_t i = 0; i < keys.size(); ++i) {
          const auto it = shadows_->find(keys[i]);
          if (it == shadows_->end()) continue;  // finished meanwhile
          if (!heard) {
            it->second->observe(nullptr);
            continue;
          }
          const SlotStatus status{states[i], jobs[i],
                                  std::strtod(work[i].c_str(), nullptr)};
          it->second->observe(&status);
        }
        answered(heard);
      });
}

}  // namespace condorg::condor
