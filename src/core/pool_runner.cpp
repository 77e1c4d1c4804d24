#include "condorg/core/pool_runner.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "condorg/core/broker.h"

namespace condorg::core {
namespace {
// The published ad outlives this many missed advertise periods.
constexpr double kAdTtlFactor = 3.0;
// One record per portal: "<owed> <credit number>". An acked debt keeps its
// record with owed 0, so the largest number survives a restart.
constexpr const char* kCreditPrefix = "pool_runner/credit/";
// The Portal lives in another partition, so its service name and deliver
// timeout are named here by value: a credit is retried as a delivery is.
constexpr const char* kPortalService = "portal";
constexpr double kCreditTimeout = 10.0;

std::string credit_record(std::uint64_t owed, std::uint64_t number) {
  return std::to_string(owed) + " " + std::to_string(number);
}
}  // namespace

PoolRunner::PoolRunner(Schedd& schedd, sim::Network& network, Options options)
    : schedd_(schedd),
      network_(network),
      host_(schedd.host()),
      options_(std::move(options)),
      rpc_(host_, network, std::string(kService) + ".rpc"),
      monitor_(host_, network, options_.shadow) {
  install();
  reload_credits();
  boot_id_ = host_.add_boot([this] {
    install();
    reload_credits();
    // Same recovery rule as VanillaRunner: persisted Running without a live
    // shadow means the shadow died with the host — the job is Idle again.
    for (const std::uint64_t id : schedd_.jobs_with_status(JobStatus::kRunning)) {
      schedd_.with_job(id, [](Job& job) {
        if (job.desc.universe == Universe::kVanilla) {
          job.status = JobStatus::kIdle;
        }
      });
    }
    if (started_) {
      publish();
      advertise_loop();
    }
    grant_credits();
  });
  crash_listener_ = host_.add_crash_listener([this] {
    shadows_.clear();
    debts_.clear();  // reloaded from the records at boot
    published_id_ = 0;  // the ad ages out of the Collector by TTL
  });
}

PoolRunner::~PoolRunner() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive()) host_.unregister_service(kService);
}

void PoolRunner::install() {
  host_.register_service(kService,
                         [this](const sim::Message& m) { on_message(m); });
}

void PoolRunner::start() {
  if (started_) return;
  started_ = true;
  publish();
  advertise_loop();
}

std::string PoolRunner::ad_name(std::uint64_t job_id) const {
  return host_.name() + "#job" + std::to_string(job_id);
}

void PoolRunner::on_message(const sim::Message& message) {
  if (message.type == "portal.deliver") {
    on_deliver(message);
    return;
  }
  if (message.type == "negotiator.match") {
    on_match(message.body);
    return;
  }
  sim::rpc_unknown(host_, network_, message, address(), "pool_runner");
}

void PoolRunner::on_deliver(const sim::Message& message) {
  // Crash on receipt: nothing persisted yet, so the portal's redelivery
  // replays the whole batch — the marker below then makes it idempotent.
  if (host_.crash_point("portal.deliver_recv")) return;
  const std::string user = message.body.get("user");
  const std::uint64_t seq = message.body.get_uint("seq");
  const std::uint64_t count = message.body.get_uint("count", 1);
  sim::Payload reply;
  reply.set_uint("seq", seq);
  const std::string marker = "pool_runner/delivered/" + std::to_string(seq);
  if (host_.disk().contains(marker)) {
    // Portal retry after a lost ack: the batch is already in the queue.
    ++duplicate_deliveries_;
    reply.set("status", "ok");
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  if (!has_room(count)) {
    // Owe the portal a credit, durably, before the reply closes this
    // runner there: a crash in between leaves the debt, and the portal,
    // never told, simply delivers again.
    ++busy_rejections_;
    reply.set("status", "busy");
    reply.set_uint("credit", owe_credit(message.from.host, count));
    if (host_.crash_point("pool_runner.credit_persist")) return;
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  // Schedd::submit persists every job before returning and this handler
  // cannot be interrupted between the submits, the marker, and the ack
  // (crash points are the only interruption points), so the batch lands
  // exactly once.
  for (std::uint64_t i = 0; i < count; ++i) {
    JobDescription desc;
    desc.universe = Universe::kVanilla;
    desc.owner = user;
    desc.runtime_seconds = message.body.get_double("runtime", 60.0);
    desc.cpus = static_cast<int>(message.body.get_int("cpus", 1));
    desc.notify_email = false;
    const std::string requirements = message.body.get("requirements");
    if (!requirements.empty()) {
      desc.ad.insert_expr("Requirements", requirements);
    }
    schedd_.submit(std::move(desc));
  }
  host_.disk().put(marker, "1");
  reply.set("status", "ok");
  sim::rpc_reply(network_, message, address(), std::move(reply));
  publish();
}

std::uint64_t PoolRunner::owe_credit(const std::string& portal_host,
                                     std::uint64_t count) {
  Debt& debt = debts_[portal_host];
  debt.owed = debt.owed == 0 ? count : std::min(debt.owed, count);
  // A fresh number per busy reply: a credit already on the wire answers
  // the older reply only, so it cannot reopen the runner past this one.
  debt.number = ++credit_seq_;
  host_.disk().put(kCreditPrefix + portal_host,
                   credit_record(debt.owed, debt.number));
  return debt.number;
}

void PoolRunner::reload_credits() {
  debts_.clear();
  for (const std::string& key : host_.disk().keys_with_prefix(kCreditPrefix)) {
    const auto record = host_.disk().get(key);
    if (!record) continue;
    char* rest = nullptr;
    Debt debt;
    debt.owed = std::strtoull(record->c_str(), &rest, 10);
    debt.number = std::strtoull(rest, nullptr, 10);
    credit_seq_ = std::max(credit_seq_, debt.number);
    debts_[key.substr(std::strlen(kCreditPrefix))] = debt;
  }
}

bool PoolRunner::has_room(std::uint64_t count) const {
  const std::size_t active = schedd_.active_count();
  return active == 0 || active + count <= options_.max_active;
}

void PoolRunner::grant_credits() {
  for (auto& [portal_host, debt] : debts_) {
    if (debt.owed == 0 || debt.in_flight || !has_room(debt.owed)) continue;
    debt.in_flight = true;
    sim::Payload payload;
    payload.set("runner", address().str());
    payload.set_uint("credit", debt.number);
    rpc_.call({portal_host, kPortalService}, "portal.credit",
              std::move(payload), kCreditTimeout,
              [this, host = portal_host, number = debt.number](
                  sim::RpcOutcome outcome, const sim::Payload&) {
                Debt& paid = debts_[host];
                paid.in_flight = false;
                // A batch turned away while this credit was on the wire
                // left a newer number; that debt stands.
                if (outcome == sim::RpcOutcome::kAnswered &&
                    paid.number == number) {
                  paid.owed = 0;
                  host_.disk().put(kCreditPrefix + host,
                                   credit_record(0, number));
                }
                // A timeout sends again; so does a newer debt with room.
                grant_credits();
              });
  }
}

void PoolRunner::publish() {
  std::uint64_t next = 0;
  for (const std::uint64_t id : schedd_.idle_jobs(Universe::kVanilla)) {
    if (shadows_.count(id)) continue;
    next = id;
    break;
  }
  if (next == 0) {
    invalidate_published();
    return;
  }
  if (published_id_ != 0 && published_id_ != next) invalidate_published();
  if (published_id_ != next) {
    const auto job = schedd_.query(next);
    if (!job) return;
    classad::ClassAd ad = broker_job_ad(*job);
    ad.insert_string("Name", ad_name(next));
    ad.insert_string("MyAddress", address().str());
    ad.insert_string("User", job->desc.owner);
    ad.insert_string("JobUniverse", "Vanilla");
    ad.insert_string("JobStatus", "Idle");
    published_ad_ = ad.unparse();
  }
  sim::Payload payload;
  payload.set("name", ad_name(next));
  payload.set("ad", published_ad_);
  payload.set_double("ttl", options_.advertise_period * kAdTtlFactor);
  rpc_.notify(options_.collector, "collector.advertise", std::move(payload));
  published_id_ = next;
}

void PoolRunner::invalidate_published() {
  if (published_id_ == 0) return;
  sim::Payload payload;
  payload.set("name", ad_name(published_id_));
  rpc_.notify(options_.collector, "collector.invalidate", std::move(payload));
  published_id_ = 0;
}

void PoolRunner::advertise_loop() {
  host_.post(options_.advertise_period, life_.wrap([this] {
                publish();  // unchanged content is a checksum no-op
                advertise_loop();
              }));
}

void PoolRunner::on_match(const sim::Payload& body) {
  const std::string name = body.get("job");
  const std::string slot_address = body.get("slot_address");
  if (published_id_ == 0 || name != ad_name(published_id_) ||
      slot_address.empty()) {
    ++stale_matches_;  // window moved (crash, completion) before this landed
    return;
  }
  const std::uint64_t job_id = published_id_;
  const auto job = schedd_.query(job_id);
  if (!job || job->status != JobStatus::kIdle || shadows_.count(job_id)) {
    ++stale_matches_;
    return;
  }

  condor::ShadowJob shadow_job;
  shadow_job.job_id = name;
  shadow_job.total_work_seconds = job->desc.runtime_seconds;
  shadow_job.checkpointed_work = job->checkpointed_work;

  const std::string claim_id = name + "." + std::to_string(++claim_counter_);
  // Every Startd answers startd.status_all for itself, so the slot's own
  // address serves as its responder.
  const sim::Address startd = sim::Address::parse(slot_address);
  auto shadow = std::make_unique<condor::Shadow>(
      monitor_, shadow_job, startd, startd, claim_id,
      /*on_done=*/
      [this, job_id](const std::string&) {
        schedd_.mark_completed(job_id);
        host_.post(0.0, life_.wrap([this, job_id] {
                     shadows_.erase(job_id);
                     publish();  // roll the window to the next idle job
                     grant_credits();  // the job left the active set
                   }));
      },
      /*on_requeue=*/
      [this, job_id](const std::string&, double checkpoint,
                     const std::string& reason) {
        schedd_.mark_evicted(job_id, checkpoint, reason);
        host_.post(0.0, life_.wrap([this, job_id] {
                     shadows_.erase(job_id);
                     publish();
                   }));
      });
  shadow->start();
  schedd_.mark_executing(job_id, "slot=" + body.get("slot_name"));
  shadows_.emplace(job_id, std::move(shadow));
  // The matched job is Running now, so this retracts its ad and advertises
  // the next pending job in the window.
  publish();
}

}  // namespace condorg::core
