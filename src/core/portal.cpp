#include "condorg/core/portal.h"

#include <algorithm>
#include <utility>

namespace condorg::core {
namespace {
constexpr double kDeliverTimeout = 10.0;
}  // namespace

Portal::Portal(sim::Host& host, sim::Network& network, Options options)
    : host_(host),
      network_(network),
      options_(options),
      rpc_(host, network, std::string(kService) + ".rpc"),
      runners_(host, "portal.runners"),
      queue_(host, "portal.queue"),
      submits_received_(host, "portal.submits_received", 0),
      batches_admitted_(host, "portal.batches_admitted", 0),
      jobs_admitted_(host, "portal.jobs_admitted", 0),
      duplicate_submits_(host, "portal.duplicate_submits", 0),
      busy_rejections_(host, "portal.busy_rejections", 0),
      deliveries_acked_(host, "portal.deliveries_acked", 0),
      admitted_counter_(host.metrics().counter("portal.batches_admitted",
                                               {{"host", host.name()}})),
      duplicate_counter_(host.metrics().counter("portal.duplicate_submits",
                                                {{"host", host.name()}})),
      busy_counter_(host.metrics().counter("portal.busy_rejections",
                                           {{"host", host.name()}})),
      depth_gauge_(host.metrics().gauge("portal.queue_depth",
                                        {{"host", host.name()}})) {
  install();
  reload();
  boot_id_ = host_.add_boot([this] {
    install();
    reload();
    if (started_) flush();
  });
  // In-memory queue is volatile; the pending records on disk are the truth
  // and reload() rebuilds from them at boot. The runner marks go with it.
  crash_listener_ = host_.add_crash_listener([this] {
    queue_->clear();
    runners_->clear();
  });
}

Portal::~Portal() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive()) host_.unregister_service(kService);
}

void Portal::install() {
  host_.register_service(kService,
                         [this](const sim::Message& m) { on_message(m); });
}

void Portal::start() {
  if (started_) return;
  started_ = true;
  flush();
}

std::string Portal::admitted_key(const std::string& user, std::uint64_t seq) {
  return "portal/admitted/" + user + "/" + std::to_string(seq);
}

std::string Portal::pending_key(const std::string& user, std::uint64_t seq) {
  return "portal/pending/" + user + "/" + std::to_string(seq);
}

std::size_t Portal::closed_runners() const {
  std::size_t closed = 0;
  for (const auto& [address, mark] : *runners_) closed += mark.closed();
  return closed;
}

void Portal::enqueue(sim::Payload body) {
  Admission admission;
  admission.user = body.get("user");
  admission.seq = body.get_uint("seq");
  admission.runner = &(*runners_)[body.get("deliver_to")];
  admission.body = std::move(body);
  queue_->push_back(std::move(admission));
}

void Portal::reload() {
  queue_->clear();
  for (const std::string& key : host_.disk().keys_with_prefix("portal/pending/")) {
    const auto record = host_.disk().get(key);
    if (!record) continue;
    enqueue(sim::Payload::deserialize(*record));
  }
  depth_gauge_.set(host_.now(), static_cast<double>(queue_->size()));
}

void Portal::on_message(const sim::Message& message) {
  if (message.type == "portal.submit") {
    ++*submits_received_;
    const std::string user = message.body.get("user");
    const std::uint64_t seq = message.body.get_uint("seq");
    const std::uint64_t count = message.body.get_uint("count", 1);
    sim::Payload reply;
    reply.set_uint("seq", seq);
    if (user.empty() || seq == 0) {
      reply.set("status", "error");
      sim::rpc_reply(network_, message, address(), std::move(reply));
      return;
    }
    if (host_.disk().contains(admitted_key(user, seq))) {
      // Client retry after a lost ack: already admitted, just re-ack.
      ++*duplicate_submits_;
      duplicate_counter_.inc();
      reply.set("status", "ok");
      sim::rpc_reply(network_, message, address(), std::move(reply));
      return;
    }
    if (queue_->size() >= options_.max_queue_depth) {
      ++*busy_rejections_;
      busy_counter_.inc();
      reply.set("status", "busy");
      sim::rpc_reply(network_, message, address(), std::move(reply));
      return;
    }
    // Persist first, ack second: a crash in between leaves the admission
    // durable and the client's retry lands in the duplicate path above.
    host_.disk().put(admitted_key(user, seq), "1");
    host_.disk().put(pending_key(user, seq), message.body.serialize());
    if (host_.crash_point("portal.submit_recv")) return;
    enqueue(message.body);
    ++*batches_admitted_;
    admitted_counter_.inc();
    *jobs_admitted_ += count;
    // Per-user accounting: at community scale this family overflows the
    // registry's label-cardinality cap and the tail lands in the "other"
    // bucket by design.
    host_.metrics().counter("portal.user_jobs", {{"user", user}}).inc(count);
    depth_gauge_.set(host_.now(), static_cast<double>(queue_->size()));
    reply.set("status", "ok");
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  if (message.type == "portal.credit") {
    on_credit(message);
    return;
  }
  sim::rpc_unknown(host_, network_, message, address(), "portal");
}

void Portal::on_credit(const sim::Message& message) {
  // Every credit is acked, so the runner can clear its record. Only one at
  // least as new as the busy reply that closed the runner reopens it: a
  // stale or duplicate one changes nothing, and one that overtook its busy
  // reply on the wire keeps that reply from closing the runner at all.
  RunnerMark& mark = (*runners_)[message.body.get("runner")];
  mark.credit = std::max(mark.credit, message.body.get_uint("credit"));
  sim::Payload reply;
  reply.set("status", "ok");
  sim::rpc_reply(network_, message, address(), std::move(reply));
}

void Portal::flush() {
  std::size_t started = 0;
  for (Admission& admission : *queue_) {
    if (started >= options_.flush_batch) break;
    // A closed runner's batches wait for its credit without taking a
    // delivery from this tick.
    if (admission.in_flight || admission.runner->closed()) continue;
    deliver(admission);
    ++started;
  }
  host_.post(options_.flush_period, life_.wrap([this] { flush(); }));
}

void Portal::deliver(Admission& admission) {
  admission.in_flight = true;
  const std::string user = admission.user;
  const std::uint64_t seq = admission.seq;
  const sim::Address to = sim::Address::parse(admission.body.get("deliver_to"));
  sim::Payload payload = admission.body;
  rpc_.call(to, "portal.deliver", std::move(payload), kDeliverTimeout,
            [this, user, seq](sim::RpcOutcome outcome,
                              const sim::Payload& reply) {
              const auto it = std::find_if(
                  queue_->begin(), queue_->end(), [&](const Admission& a) {
                    return a.user == user && a.seq == seq;
                  });
              if (it == queue_->end()) return;  // crashed + reloaded meanwhile
              const bool answered = outcome == sim::RpcOutcome::kAnswered;
              if (answered && reply.get("status") == "ok") {
                host_.disk().erase(pending_key(user, seq));
                queue_->erase(it);
                ++*deliveries_acked_;
                depth_gauge_.set(host_.now(),
                                 static_cast<double>(queue_->size()));
                return;
              }
              // Runner busy: it owes a credit, and the runner stays closed
              // until that arrives. Delivery lost: the next flush retries
              // (the runner's persisted marker absorbs any duplicate that
              // did get through). Either way the batch stays queued.
              if (answered && reply.get("status") == "busy") {
                it->runner->busy =
                    std::max(it->runner->busy, reply.get_uint("credit"));
              }
              it->in_flight = false;
            });
}

}  // namespace condorg::core
