#include "condorg/mds/provider.h"

namespace condorg::mds {
namespace {
// A registration's TTL is this many periods.
constexpr double kTtlFactor = 2.5;
}  // namespace

InfoProvider::InfoProvider(sim::Host& host, sim::Network& network,
                           std::string resource_name, Snapshot snapshot,
                           Options options)
    : host_(host),
      rpc_(host, network, "mds.provider." + resource_name),
      name_(std::move(resource_name)),
      snapshot_(std::move(snapshot)),
      options_(options) {
  boot_id_ = host_.add_boot([this] {
    if (started_) tick();
  });
}

InfoProvider::~InfoProvider() { host_.remove_boot(boot_id_); }

void InfoProvider::add_directory(const sim::Address& giis) {
  directories_.push_back(giis);
}

void InfoProvider::start() {
  if (started_) return;
  started_ = true;
  tick();
}

void InfoProvider::stop() {
  if (!started_) return;
  started_ = false;
  for (const sim::Address& giis : directories_) {
    sim::Payload payload;
    payload.set("name", name_);
    if (!credential_.empty()) payload.set("credential", credential_);
    // Same delivery contract as register: fire-and-forget, TTL is the
    // backstop if this never arrives.
    rpc_.call(giis, "grrp.unregister", std::move(payload), 30.0,
              [](sim::RpcOutcome, const sim::Payload&) {});
  }
}

void InfoProvider::tick() {
  if (!started_) return;
  const classad::ClassAd ad = snapshot_();
  for (const sim::Address& giis : directories_) {
    sim::Payload payload;
    payload.set("name", name_);
    payload.set("ad", ad.unparse());
    payload.set_double("ttl", options_.period_seconds * kTtlFactor);
    if (!credential_.empty()) payload.set("credential", credential_);
    // Fire-and-forget with a short timeout: a missed registration is
    // repaired by the next tick; the TTL covers the gap.
    rpc_.call(giis, "grrp.register", std::move(payload), 30.0,
              [](sim::RpcOutcome, const sim::Payload&) {});
  }
  host_.post(options_.period_seconds, [this] { tick(); });
}

}  // namespace condorg::mds
