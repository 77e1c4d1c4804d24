#include "condorg/condor/shadow.h"

#include <algorithm>
#include <utility>

#include "condorg/condor/shadow_monitor.h"

namespace condorg::condor {
namespace {
// Bad answers or silences in a row before the execution counts as lost.
constexpr int kMaxMissedPolls = 3;
}  // namespace

Shadow::Shadow(
    ShadowMonitor& monitor, ShadowJob job, sim::Address startd,
    sim::Address responder, std::string claim_id,
    std::function<void(const std::string&)> on_done,
    std::function<void(const std::string&, double, const std::string&)>
        on_requeue)
    : monitor_(monitor),
      host_(monitor.host_),
      network_(monitor.network_),
      job_(std::move(job)),
      startd_(std::move(startd)),
      responder_(std::move(responder)),
      claim_id_(std::move(claim_id)),
      service_("shadow." + claim_id_),
      on_done_(std::move(on_done)),
      on_requeue_(std::move(on_requeue)),
      rpc_(host_, network_, service_ + ".rpc") {
  host_.register_service(service_,
                         [this](const sim::Message& m) { on_message(m); });
}

Shadow::~Shadow() {
  monitor_.forget(*this);  // no probe may reach a destroyed Shadow
  if (host_.alive()) host_.unregister_service(service_);
}

void Shadow::start() {
  sim::Payload claim;
  claim.set("claim_id", claim_id_);
  claim.set("job_id", job_.job_id);
  claim.set("shadow", address().str());
  rpc_.call(startd_, "startd.claim", std::move(claim), kRpcTimeout,
            [this](sim::RpcOutcome claimed, const sim::Payload&) {
              if (outcome_ != Outcome::kPending) return;
              if (claimed != sim::RpcOutcome::kAnswered) {
                finish(Outcome::kRequeued, "claim failed");
                return;
              }
              sim::Payload activate;
              activate.set("claim_id", claim_id_);
              activate.set("job_id", job_.job_id);
              activate.set_double("total_work", job_.total_work_seconds);
              activate.set_double("work_done", job_.checkpointed_work);
              rpc_.call(startd_, "startd.activate", std::move(activate),
                        kRpcTimeout,
                        [this](sim::RpcOutcome activated,
                               const sim::Payload&) {
                          if (outcome_ != Outcome::kPending) return;
                          if (activated != sim::RpcOutcome::kAnswered) {
                            release_slot();
                            finish(Outcome::kRequeued, "activation failed");
                            return;
                          }
                          monitor_.watch(*this);
                        });
            });
}

void Shadow::observe(const SlotStatus* status) {
  if (outcome_ != Outcome::kPending) return;
  if (status != nullptr && status->state == "Running" &&
      status->job_id == job_.job_id) {
    missed_polls_ = 0;
    // Fold the reported progress in, so a subsequent crash costs at most
    // one probe interval.
    job_.checkpointed_work =
        std::max(job_.checkpointed_work, status->work_done);
    return;
  }
  // Silence: the execute host or the path to it is down. An answer that is
  // not our job running (MISSING, a claim broken by the owner): the
  // definitive done/evict may still be in flight, so wait the same number
  // of rounds before declaring the execution lost.
  if (++missed_polls_ >= kMaxMissedPolls) {
    finish(Outcome::kRequeued,
           status != nullptr ? "claim lost" : "execution machine lost");
  }
}

void Shadow::on_message(const sim::Message& message) {
  // Stale-claim messages are dropped on purpose: the startd's bounded
  // retries give up, and the claim whose shadow would have acked is gone.
  // lint-allow(reply-on-all-paths): deliberate drop of stale-claim traffic
  if (message.body.get("claim_id") != claim_id_) return;  // stale sender

  if (message.type == "shadow.io") {
    ++io_ops_;
    io_bytes_ += message.body.get_uint("bytes");
    return;  // one-way, no ack
  }

  // done / evict / checkpoint are acked so the startd stops retrying.
  sim::rpc_reply(network_, message, address(), {});

  if (outcome_ != Outcome::kPending) return;  // duplicate after finish

  if (message.type == "shadow.checkpoint") {
    ++checkpoints_;
    job_.checkpointed_work =
        std::max(job_.checkpointed_work, message.body.get_double("work_done"));
    return;
  }
  if (message.type == "shadow.done") {
    job_.checkpointed_work = job_.total_work_seconds;
    finish(Outcome::kDone, "completed");
    return;
  }
  if (message.type == "shadow.evict") {
    job_.checkpointed_work =
        std::max(job_.checkpointed_work, message.body.get_double("work_done"));
    finish(Outcome::kRequeued, message.body.get("reason"));
    return;
  }
  // Already acked above (so the startd stops retrying) but nobody handled
  // it: protocol drift the auditor's no-unknown-messages check surfaces.
  sim::rpc_unknown(host_, network_, message, address(), "shadow",
                   /*acked=*/true);
}

void Shadow::release_slot() {
  sim::Payload release;
  release.set("claim_id", claim_id_);
  rpc_.call(startd_, "startd.release", std::move(release),
            kRpcTimeout, [](sim::RpcOutcome, const sim::Payload&) {});
}

void Shadow::finish(Outcome outcome, const std::string& reason) {
  if (outcome_ != Outcome::kPending) return;
  outcome_ = outcome;
  monitor_.forget(*this);
  if (outcome == Outcome::kDone) {
    if (on_done_) on_done_(job_.job_id);
  } else {
    if (on_requeue_) on_requeue_(job_.job_id, job_.checkpointed_work, reason);
  }
}

}  // namespace condorg::condor
