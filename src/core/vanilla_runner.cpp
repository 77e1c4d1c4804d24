#include "condorg/core/vanilla_runner.h"

#include <utility>

#include "condorg/core/broker.h"

namespace condorg::core {
namespace {

/// Zero-padded to the width of any uint64, so the Collector's name order is
/// job-id order: the order the negotiator tries one user's jobs in.
std::string ad_name(std::uint64_t job_id) {
  const std::string digits = std::to_string(job_id);
  return std::string(20 - digits.size(), '0') + digits;
}

}  // namespace

VanillaRunner::VanillaRunner(Schedd& schedd, sim::Network& network,
                             condor::Collector& collector, std::string user,
                             VanillaRunnerOptions options)
    : schedd_(schedd),
      host_(schedd.host()),
      collector_(collector),
      user_(std::move(user)),
      monitor_(host_, network, options.shadow) {
  negotiator_ = std::make_unique<condor::Negotiator>(
      host_, collector, [this] { sync_job_ads(); },
      [this](const condor::Match& match, const condor::Collector::Entry&) {
        on_match(match);
      },
      options.negotiator);
  // The Schedd outlives the runner: the agent owns both and declares the
  // Schedd first.
  schedd_.add_queue_listener([this](const Job& job) {
    if (job.desc.universe == Universe::kVanilla) changed_.insert(job.id);
  });
  // Submit-machine crash kills all shadows; jobs are re-queued from their
  // persisted checkpoints when the queue reloads (their status snaps back
  // to Idle on recovery below).
  crash_listener_ = host_.add_crash_listener([this] {
    for (const auto& [job_id, shadow] : shadows_) {
      // Persisted state may say Running; the queue reload on boot keeps
      // that, so normalize: a vanilla job without a live shadow is Idle.
      schedd_.with_job(job_id, [](Job& job) {
        if (job.status == JobStatus::kRunning) job.status = JobStatus::kIdle;
      });
    }
    shadows_.clear();
    // The colocated Collector lost every job ad in the same crash.
    changed_.clear();
    resync_ = true;
  });
}

VanillaRunner::~VanillaRunner() {
  host_.remove_crash_listener(crash_listener_);
}

void VanillaRunner::start() { negotiator_->start(); }

void VanillaRunner::sync_job_ads() {
  if (resync_) {
    resync_ = false;
    for (const std::uint64_t id : schedd_.idle_jobs(Universe::kVanilla)) {
      changed_.insert(id);
    }
  }
  for (const std::uint64_t id : changed_) {
    const Job* job = schedd_.find(id);
    if (job == nullptr || job->status != JobStatus::kIdle ||
        shadows_.count(id) != 0) {
      collector_.invalidate(ad_name(id));
      continue;
    }
    classad::ClassAd ad = broker_job_ad(*job);
    ad.insert_string("User", user_);
    ad.insert_string("JobUniverse", "Vanilla");
    collector_.put_local(
        ad_name(id), std::make_shared<const classad::ClassAd>(std::move(ad)));
  }
  changed_.clear();
}

void VanillaRunner::drop_shadow(std::uint64_t job_id) {
  host_.post(0.0, [this, job_id] {
    shadows_.erase(job_id);
    changed_.insert(job_id);
  });
}

void VanillaRunner::on_match(const condor::Match& match) {
  const std::uint64_t job_id = std::stoull(match.job_id);
  const Job* job = schedd_.find(job_id);
  if (job == nullptr || job->status != JobStatus::kIdle) return;
  const auto slot_addr = match.slot_ad.eval_string("MyAddress");
  if (!slot_addr) return;
  // A glide-in's slot ad names its node's responder; a standalone Startd
  // answers for itself.
  const std::string responder =
      match.slot_ad.eval_string("Responder").value_or(*slot_addr);

  condor::ShadowJob shadow_job;
  shadow_job.job_id = std::to_string(job_id);
  shadow_job.total_work_seconds = job->desc.runtime_seconds;
  shadow_job.checkpointed_work = job->checkpointed_work;

  const std::string claim_id =
      shadow_job.job_id + "." + std::to_string(++claim_counter_);
  auto shadow = std::make_unique<condor::Shadow>(
      monitor_, shadow_job, sim::Address::parse(*slot_addr),
      sim::Address::parse(responder), claim_id,
      /*on_done=*/
      [this, job_id](const std::string&) {
        schedd_.mark_completed(job_id);
        drop_shadow(job_id);
      },
      /*on_requeue=*/
      [this, job_id](const std::string&, double checkpoint,
                     const std::string& reason) {
        schedd_.mark_evicted(job_id, checkpoint, reason);
        drop_shadow(job_id);
      });
  shadow->start();
  schedd_.mark_executing(job_id,
                         "slot=" + *match.slot_ad.eval_string("Name"));
  shadows_.emplace(job_id, std::move(shadow));
}

}  // namespace condorg::core
