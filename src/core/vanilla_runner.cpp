#include "condorg/core/vanilla_runner.h"

#include "condorg/core/broker.h"

namespace condorg::core {

VanillaRunner::VanillaRunner(Schedd& schedd, sim::Network& network,
                             condor::Collector& collector,
                             VanillaRunnerOptions options)
    : schedd_(schedd),
      network_(network),
      host_(schedd.host()),
      options_(options),
      monitor_(host_, network, options.shadow) {
  negotiator_ = std::make_unique<condor::Negotiator>(
      host_, collector, [this] { return idle_jobs(); },
      [this](const condor::Match& match) { on_match(match); },
      options_.negotiator);
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
  });
}

VanillaRunner::~VanillaRunner() {
  host_.remove_crash_listener(crash_listener_);
}

void VanillaRunner::start() { negotiator_->start(); }

std::vector<condor::IdleJob> VanillaRunner::idle_jobs() const {
  std::vector<condor::IdleJob> out;
  for (const std::uint64_t id : schedd_.idle_jobs(Universe::kVanilla)) {
    if (shadows_.count(id)) continue;  // already being placed
    const auto job = schedd_.query(id);
    out.push_back(
        condor::IdleJob{std::to_string(id), broker_job_ad(*job)});
  }
  return out;
}

void VanillaRunner::on_match(const condor::Match& match) {
  const std::uint64_t job_id = std::stoull(match.job_id);
  const auto job = schedd_.query(job_id);
  if (!job || job->status != JobStatus::kIdle) return;
  const auto slot_addr = match.slot_ad.eval_string("MyAddress");
  if (!slot_addr) return;
  // A glide-in's slot ad names its node's responder; a standalone Startd
  // answers for itself.
  const std::string responder =
      match.slot_ad.eval_string("Responder").value_or(*slot_addr);

  condor::ShadowJob shadow_job;
  shadow_job.job_id = match.job_id;
  shadow_job.total_work_seconds = job->desc.runtime_seconds;
  shadow_job.checkpointed_work = job->checkpointed_work;

  const std::string claim_id =
      match.job_id + "." + std::to_string(++claim_counter_);
  auto shadow = std::make_unique<condor::Shadow>(
      monitor_, shadow_job, sim::Address::parse(*slot_addr),
      sim::Address::parse(responder), claim_id,
      /*on_done=*/
      [this, job_id](const std::string&) {
        schedd_.mark_completed(job_id);
        host_.post(0.0, [this, job_id] { shadows_.erase(job_id); });
      },
      /*on_requeue=*/
      [this, job_id](const std::string&, double checkpoint,
                     const std::string& reason) {
        schedd_.mark_evicted(job_id, checkpoint, reason);
        host_.post(0.0, [this, job_id] { shadows_.erase(job_id); });
      });
  shadow->start();
  schedd_.mark_executing(job_id,
                         "slot=" + *match.slot_ad.eval_string("Name"));
  shadows_.emplace(job_id, std::move(shadow));
}

}  // namespace condorg::core
