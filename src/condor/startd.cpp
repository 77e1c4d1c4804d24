#include "condorg/condor/startd.h"

#include <utility>
#include <vector>

#include "condorg/util/strings.h"

namespace condorg::condor {
namespace {
// An ad outlives this many missed advertise periods at the Collector.
constexpr double kAdTtlFactor = 3.0;
constexpr double kNotifyTimeout = 30.0;
constexpr int kNotifyRetries = 10;
// startd.status_all's state for a Startd the responder does not run (a
// restarted glide-in starter, an exited daemon).
constexpr const char* kMissingSlot = "MISSING";
}  // namespace

const char* Startd::to_string(State state) {
  switch (state) {
    case State::kOwner: return "Owner";
    case State::kUnclaimed: return "Unclaimed";
    case State::kClaimed: return "Claimed";
    case State::kRunning: return "Running";
    case State::kExited: return "Exited";
  }
  return "?";
}

Startd::Startd(sim::Host& host, sim::Network& network, std::string slot_name,
               StartdOptions options, std::function<void()> on_exit)
    : host_(host),
      network_(network),
      slot_name_(std::move(slot_name)),
      service_("startd." + slot_name_),
      options_(std::move(options)),
      on_exit_(std::move(on_exit)),
      rpc_(host, network, service_ + ".rpc"),
      rng_(host.sim().make_rng("startd." + slot_name_)) {
  install();
  last_activity_ = host_.now();
  advertise();
  if (options_.owner_activity) owner_cycle();
  if (options_.idle_timeout > 0) {
    host_.post(options_.idle_timeout / 4, life_.wrap([this] { idle_check(); }));
  }
  if (options_.allocation_expires_at < 1e17) {
    host_.post(options_.allocation_expires_at - host_.now(),
               life_.wrap([this] {
                 if (state_ == State::kRunning) {
                   evict("allocation expired", /*then_exit=*/true);
                 } else if (state_ != State::kExited) {
                   finish_exit("allocation expired");
                 }
               }));
  }
  // A host crash kills the daemon outright: no eviction notice, no
  // checkpoint, no on_exit — the shadow must discover the loss by probing.
  crash_listener_ =
      host_.add_crash_listener([this] { state_ = State::kExited; });
}

Startd::~Startd() {
  life_.revoke();
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive() && state_ != State::kExited) {
    host_.unregister_service(service_);
  }
}

void Startd::install() {
  host_.register_service(service_,
                         [this](const sim::Message& m) { on_message(m); });
}

void Startd::advertise() {
  if (state_ == State::kExited) return;
  send_ad();
  host_.post(options_.advertise_period, life_.wrap([this] { advertise(); }));
}

void Startd::send_ad() {
  if (ad_text_.empty() || ad_state_ != state_) {
    classad::ClassAd ad = options_.base_ad;
    ad.insert_string("Name", slot_name_);
    ad.insert_string("MyAddress", address().str());
    ad.insert_string("State", to_string(state_));
    ad_text_ = ad.unparse();
    ad_state_ = state_;
  }
  // Deliberately no heartbeat timestamp: liveness is the TTL refresh, and a
  // content-stable ad lets the Collector's checksum no-op path absorb the
  // periodic re-advertise instead of fanning it out as a delta to every
  // subscriber.
  sim::Payload payload;
  payload.set("name", slot_name_);
  payload.set("ad", ad_text_);
  payload.set_double("ttl", options_.advertise_period * kAdTtlFactor);
  rpc_.notify(options_.collector, "collector.advertise", std::move(payload));
}

double Startd::work_done_now() const {
  return base_work_done_ + (host_.now() - activated_at_);
}

void Startd::notify_shadow(const std::string& type, sim::Payload payload) {
  if (!claim_) return;
  payload.set("claim_id", claim_->claim_id);
  payload.set("job_id", claim_->job_id);
  payload.set("slot", slot_name_);
  // Reliable-ish delivery: retry until acked or retries exhausted. done and
  // evict must not be lost silently or the shadow would wait forever.
  struct Attempt {
    int remaining;
  };
  auto attempt = std::make_shared<Attempt>(Attempt{kNotifyRetries});
  auto send = std::make_shared<std::function<void()>>();
  const sim::Address shadow = claim_->shadow;
  *send = [this, type, payload, attempt,
           weak = std::weak_ptr<std::function<void()>>(send), shadow]() {
    const auto self = weak.lock();
    if (!self) return;
    rpc_.call(shadow, type, payload, kNotifyTimeout,
              [this, attempt, self](sim::RpcOutcome outcome,
                                    const sim::Payload&) {
                // Any reply is the ack; only silence is sent again.
                if (outcome != sim::RpcOutcome::kSilent) return;
                if (--attempt->remaining <= 0) return;  // give up
                host_.post(kNotifyTimeout,
                           life_.wrap([self] { (*self)(); }));
              });
  };
  (*send)();
}

void Startd::on_message(const sim::Message& message) {
  touch_activity();
  if (message.type == "startd.claim") {
    if (state_ != State::kUnclaimed) {
      sim::rpc_refuse(network_, message, address(),
                      std::string("slot is ") + to_string(state_));
      return;
    }
    claim_ = Claim{message.body.get("claim_id"), message.body.get("job_id"),
                   sim::Address::parse(message.body.get("shadow"))};
    state_ = State::kClaimed;
    send_ad();
    sim::rpc_reply(network_, message, address(), {});
    return;
  }
  if (message.type == "startd.activate") {
    if (state_ != State::kClaimed || !claim_ ||
        claim_->claim_id != message.body.get("claim_id")) {
      sim::rpc_refuse(network_, message, address(), "no matching claim");
      return;
    }
    activate(message);
    sim::rpc_reply(network_, message, address(), {});
    return;
  }
  if (message.type == "startd.release") {
    if (claim_ && claim_->claim_id == message.body.get("claim_id")) {
      if (state_ == State::kRunning) {
        host_.sim().cancel(completion_event_);
        host_.sim().cancel(checkpoint_event_);
        host_.sim().cancel(io_event_);
      }
      claim_.reset();
      if (state_ != State::kExited) state_ = State::kUnclaimed;
      send_ad();
    }
    sim::rpc_reply(network_, message, address(), {});
    return;
  }
  if (message.type == "startd.status_all") {
    // Standing alone, this Startd is its own host's responder.
    answer_status_all(network_, message, address(),
                      [this](const std::string& service) {
                        return service == service_ ? this : nullptr;
                      });
    return;
  }
  if (message.type == "startd.shutdown") {
    sim::rpc_reply(network_, message, address(), {});
    shutdown("requested");
    return;
  }
  sim::rpc_unknown(host_, network_, message, address(), "startd");
}

void Startd::answer_status_all(
    sim::Network& network, const sim::Message& request,
    const sim::Address& from,
    const std::function<const Startd*(const std::string& service)>& find) {
  std::vector<std::string> states;
  std::vector<std::string> jobs;
  std::vector<std::string> work;
  for (const std::string& service :
       util::split(request.body.get("startds"), ',')) {
    const Startd* startd = find(service);
    if (startd == nullptr) {
      states.emplace_back(kMissingSlot);
      jobs.emplace_back();
      work.emplace_back("0");
      continue;
    }
    const bool running = startd->state_ == State::kRunning;
    states.emplace_back(to_string(startd->state_));
    jobs.emplace_back(startd->claim_ ? startd->claim_->job_id : "");
    work.emplace_back(
        running ? util::format_double(startd->work_done_now()) : "0");
  }
  sim::Payload reply;
  reply.set("states", util::join(states, ","));
  reply.set("jobs", util::join(jobs, ","));
  reply.set("work", util::join(work, ","));
  sim::rpc_reply(network, request, from, std::move(reply));
}

void Startd::activate(const sim::Message& message) {
  state_ = State::kRunning;
  activated_at_ = host_.now();
  base_work_done_ = message.body.get_double("work_done");
  work_remaining_ =
      message.body.get_double("total_work") - base_work_done_;
  if (work_remaining_ < 0) work_remaining_ = 0;
  send_ad();

  completion_event_ =
      host_.post(work_remaining_, life_.wrap([this] { complete_job(); }));
  if (options_.checkpoint_interval > 0) {
    auto periodic = std::make_shared<std::function<void()>>();
    *periodic = [this,
                 weak = std::weak_ptr<std::function<void()>>(periodic)] {
      if (state_ != State::kRunning) return;
      const auto self = weak.lock();
      if (!self) return;
      sim::Payload ckpt;
      ckpt.set_double("work_done", work_done_now());
      notify_shadow("shadow.checkpoint", std::move(ckpt));
      checkpoint_event_ = host_.post(options_.checkpoint_interval,
                                     life_.wrap([self] { (*self)(); }));
    };
    checkpoint_event_ =
        host_.post(options_.checkpoint_interval,
                   life_.wrap([periodic] { (*periodic)(); }));
  }
  if (options_.io_interval > 0) {
    auto io = std::make_shared<std::function<void()>>();
    *io = [this, weak = std::weak_ptr<std::function<void()>>(io)] {
      if (state_ != State::kRunning) return;
      const auto self = weak.lock();
      if (!self) return;
      sim::Payload record;
      record.set_uint("bytes", options_.io_bytes_per_op);
      // One-way: the shadow never acks io records, so the retrying
      // notify_shadow path would time out and resend, double-counting io
      // in the shadow's accounting. A lost record only skews stats.
      if (claim_) {
        record.set("claim_id", claim_->claim_id);
        record.set("job_id", claim_->job_id);
        record.set("slot", slot_name_);
        rpc_.notify(claim_->shadow, "shadow.io", std::move(record));
      }
      io_event_ =
          host_.post(options_.io_interval, life_.wrap([self] { (*self)(); }));
    };
    io_event_ =
        host_.post(options_.io_interval, life_.wrap([io] { (*io)(); }));
  }
}

void Startd::complete_job() {
  if (state_ != State::kRunning) return;
  ++jobs_completed_;
  host_.sim().cancel(checkpoint_event_);
  host_.sim().cancel(io_event_);
  sim::Payload done;
  done.set_double("work_done", work_done_now());
  notify_shadow("shadow.done", std::move(done));
  claim_.reset();
  state_ = State::kUnclaimed;
  touch_activity();
  send_ad();
}

void Startd::evict(const std::string& reason, bool then_exit) {
  if (state_ != State::kRunning) {
    if (then_exit) finish_exit(reason);
    return;
  }
  ++evictions_;
  host_.sim().cancel(completion_event_);
  host_.sim().cancel(checkpoint_event_);
  host_.sim().cancel(io_event_);
  // Graceful preemption checkpoints at eviction time (Condor's standard
  // universe behaviour), so no work is lost on *polite* eviction.
  sim::Payload payload;
  payload.set_double("work_done", work_done_now());
  payload.set("reason", reason);
  notify_shadow("shadow.evict", std::move(payload));
  claim_.reset();
  if (then_exit) {
    finish_exit(reason);
  } else {
    state_ = options_.owner_activity ? State::kOwner : State::kUnclaimed;
    send_ad();
  }
}

void Startd::finish_exit(const std::string&) {
  if (state_ == State::kExited) return;
  state_ = State::kExited;
  sim::Payload payload;
  payload.set("name", slot_name_);
  rpc_.notify(options_.collector, "collector.invalidate", std::move(payload));
  host_.unregister_service(service_);
  if (on_exit_) on_exit_();
}

void Startd::shutdown(const std::string& reason) {
  if (state_ == State::kRunning) {
    evict(reason, /*then_exit=*/true);
  } else {
    finish_exit(reason);
  }
}

void Startd::owner_cycle() {
  if (state_ == State::kExited) return;
  // Owner away -> machine available; owner back -> evict and block.
  const double away = rng_.exponential(options_.mean_owner_away_seconds);
  host_.post(away, life_.wrap([this] {
    if (state_ == State::kExited) return;
    if (state_ == State::kRunning) {
      evict("owner returned", /*then_exit=*/false);
    } else if (state_ != State::kClaimed) {
      state_ = State::kOwner;
      send_ad();
    } else {
      // Claimed but not yet running: break the claim.
      claim_.reset();
      state_ = State::kOwner;
      send_ad();
    }
    const double busy = rng_.exponential(options_.mean_owner_busy_seconds);
    host_.post(busy, life_.wrap([this] {
      if (state_ == State::kOwner) {
        state_ = State::kUnclaimed;
        touch_activity();
        send_ad();
      }
      owner_cycle();
    }));
  }));
}

void Startd::idle_check() {
  if (state_ == State::kExited) return;
  if (state_ == State::kUnclaimed &&
      host_.now() - last_activity_ >= options_.idle_timeout) {
    finish_exit("idle timeout");
    return;
  }
  host_.post(options_.idle_timeout / 4, life_.wrap([this] { idle_check(); }));
}

}  // namespace condorg::condor
