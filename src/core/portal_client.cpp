#include "condorg/core/portal_client.h"

#include <algorithm>
#include <utility>

namespace condorg::core {

namespace {
constexpr const char* kProgressKey = "portal_client/progress";
constexpr double kSubmitTimeout = 10.0;
}  // namespace

PortalClient::PortalClient(sim::Host& host, sim::Network& network,
                           Options options)
    : host_(host),
      options_(std::move(options)),
      rpc_(host, network, "portal_client." + options_.user),
      remaining_(options_.total_jobs) {
  reload_progress();
  boot_id_ = host_.add_boot([this] {
    reload_progress();
    if (started_ && !in_flight_) submit_next();
  });
  crash_listener_ = host_.add_crash_listener([this] { in_flight_ = false; });
}

PortalClient::~PortalClient() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
}

void PortalClient::start(std::function<void()> on_drained) {
  on_drained_ = std::move(on_drained);
  if (started_) return;
  started_ = true;
  submit_next();
}

void PortalClient::persist_progress() {
  sim::Payload progress;
  progress.set_uint("next_seq", next_seq_);
  progress.set_uint("remaining", remaining_);
  host_.disk().put(kProgressKey, progress.serialize());
}

void PortalClient::reload_progress() {
  const auto record = host_.disk().get(kProgressKey);
  if (!record) return;
  const sim::Payload progress = sim::Payload::deserialize(*record);
  next_seq_ = progress.get_uint("next_seq", 1);
  remaining_ = progress.get_uint("remaining", options_.total_jobs);
}

void PortalClient::submit_next() {
  if (remaining_ == 0) {
    if (on_drained_) {
      auto done = std::move(on_drained_);
      on_drained_ = nullptr;
      done();
    }
    return;
  }
  if (in_flight_) return;
  in_flight_ = true;
  const std::uint64_t count = std::min(remaining_, options_.batch_size);
  const std::uint64_t seq = next_seq_;
  sim::Payload payload;
  payload.set("user", options_.user);
  payload.set_uint("seq", seq);
  payload.set_uint("count", count);
  payload.set("deliver_to", options_.deliver_to.str());
  payload.set_double("runtime", options_.runtime_seconds);
  payload.set_int("cpus", options_.cpus);
  if (!options_.requirements.empty()) {
    payload.set("requirements", options_.requirements);
  }
  rpc_.call(options_.portal, "portal.submit", std::move(payload),
            kSubmitTimeout,
            [this, count](sim::RpcOutcome outcome,
                          const sim::Payload& reply) {
              in_flight_ = false;
              if (outcome == sim::RpcOutcome::kAnswered &&
                  reply.get("status") == "ok") {
                remaining_ -= count;
                ++next_seq_;
                persist_progress();
                submit_next();
                return;
              }
              // Busy portal or lost ack: same sequence again after a
              // backoff — the portal's admission record dedups a batch
              // that actually made it in.
              ++retries_;
              host_.post(options_.retry_backoff, life_.wrap([this] {
                            if (!in_flight_) submit_next();
                          }));
            });
}

}  // namespace condorg::core
