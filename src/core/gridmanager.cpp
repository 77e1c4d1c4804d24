#include "condorg/core/gridmanager.h"

#include <algorithm>
#include <functional>

#include "condorg/util/rng.h"
#include "condorg/util/strings.h"

namespace condorg::core {

namespace {

// Cadence of the queue scan that routes idle jobs and prunes the pipeline.
constexpr double kPollInterval = 60.0;
// Re-probe cadence while a site's Gatekeeper does not answer.
constexpr double kRecoverRetry = 120.0;

}  // namespace

GridManager::GridManager(Schedd& schedd, sim::Network& network,
                         std::string user, SiteChooser chooser,
                         GridManagerOptions options)
    : schedd_(schedd),
      host_(schedd.host()),
      network_(network),
      user_(std::move(user)),
      chooser_(std::move(chooser)),
      options_(options),
      gass_(host_, network, "gass." + user_),
      gram_(host_, network, user_, options.gram),
      submitting_(host_, "gridmanager.submitting"),
      contact_to_job_(host_, "gridmanager.contact_to_job"),
      probe_(host_, "gridmanager." + user_, "gridmanager.watched",
             options.probe_interval, kRecoverRetry,
             std::bind_front(&GridManager::probe_contact, this),
             std::bind_front(&GridManager::probe_site, this)),
      restarting_(host_, "gridmanager.restarting"),
      gass_owed_(host_, "gridmanager.gass_owed"),
      pending_since_(host_, "gridmanager.pending_since"),
      migrating_(host_, "gridmanager.migrating"),
      degraded_since_(host_, "gridmanager.degraded_since"),
      site_ready_(host_, "gridmanager.site_ready"),
      queued_(host_, "gridmanager.queued"),
      pipeline_site_of_(host_, "gridmanager.pipeline_site_of"),
      site_pipeline_(host_, "gridmanager.site_pipeline"),
      repump_(host_, "gridmanager.repump"),
      artifacts_(host_, "gridmanager.artifacts") {
  host_.register_service("gridmanager." + user_,
                         [this](const sim::Message& m) { dispatch(m); });
  boot_id_ = host_.add_boot([this] {
    host_.register_service("gridmanager." + user_,
                           [this](const sim::Message& m) { dispatch(m); });
    if (started_) recover_after_boot();
  });
}

GridManager::~GridManager() {
  host_.remove_boot(boot_id_);
  if (host_.alive()) host_.unregister_service("gridmanager." + user_);
}

sim::Address GridManager::callback_address() const {
  return {host_.name(), "gridmanager." + user_};
}

void GridManager::count(std::string_view name) {
  host_.metrics().counter(name, {{"user", user_}}).inc();
}

void GridManager::note_degraded(std::uint64_t job_id, std::string_view why) {
  if (degraded_since_->count(job_id)) return;  // outage already open
  degraded_since_->emplace(job_id, host_.now());
  sim::Tracer& tracer = host_.tracer();
  if (tracer.enabled()) {
    tracer.event("recovery.begin", job_id, host_.name(), host_.epoch(), why);
  }
}

void GridManager::note_recovered(std::uint64_t job_id,
                                 std::string_view how) {
  const auto it = degraded_since_->find(job_id);
  if (it == degraded_since_->end()) return;
  const double latency = host_.now() - it->second;
  degraded_since_->erase(it);
  host_.metrics()
      .histogram("gridmanager.recovery_seconds", {{"user", user_}})
      .observe(latency);
  sim::Tracer& tracer = host_.tracer();
  if (tracer.enabled()) {
    tracer.event("recovery.end", job_id, host_.name(), host_.epoch(), how);
  }
}

void GridManager::set_credential_text(const std::string& serialized) {
  gram_.set_credential_text(serialized);
}

void GridManager::start() {
  if (started_) return;
  started_ = true;
  tick();
}

void GridManager::tick() {
  prune_pipeline();
  drive_idle_jobs();
  host_.post(kPollInterval, [this] { tick(); });
}

gram::GramJobSpec GridManager::spec_for(const Job& job) {
  gram::GramJobSpec spec;
  // Content-addressed: every job running this executable names the same
  // store entry, and the checksum lets the site's staging cache serve
  // repeats without a transfer (and detect changed content).
  const Artifact& artifact = stage_artifact(job);
  spec.executable = artifact.path;
  spec.exe_checksum = artifact.checksum;
  spec.output = job.desc.output.empty()
                    ? "out/" + std::to_string(job.id) + ".out"
                    : job.desc.output;
  spec.gass_url = gass_.address().str();
  spec.runtime_seconds = job.desc.runtime_seconds;
  spec.walltime_limit = job.desc.walltime_limit;
  spec.cpus = job.desc.cpus;
  spec.output_size = job.desc.output_size;
  spec.tag = "job" + std::to_string(job.id);
  return spec;
}

std::string GridManager::make_exe_content(const std::string& name) const {
  // The executable content is synthetic but deterministic: regenerable from
  // the name alone, so crash recovery re-creates byte-identical content
  // (and hence the same checksum) without persisting it anywhere.
  std::string content = "executable:" + name;
  const std::uint64_t want = options_.staged_content_bytes;
  if (want > content.size()) {
    const std::string block =
        content + "#" + std::to_string(util::fnv1a(name)) + "\n";
    content.reserve(want);
    while (content.size() < want) {
      content.append(block, 0, std::min<std::uint64_t>(
                                   block.size(), want - content.size()));
    }
  }
  return content;
}

const GridManager::Artifact& GridManager::stage_artifact(const Job& job) {
  const auto memo = artifacts_->find(job.desc.executable);
  if (memo != artifacts_->end()) return memo->second;
  std::string content = make_exe_content(job.desc.executable);
  Artifact artifact;
  artifact.checksum = util::fnv1a(content);
  artifact.path = "exe/cas/" + std::to_string(artifact.checksum);
  artifact.declared_size = job.desc.executable_size;
  gass_.store().put_if_absent(artifact.path, std::move(content),
                              artifact.declared_size);
  return artifacts_->emplace(job.desc.executable, std::move(artifact))
      .first->second;
}

std::size_t GridManager::pipeline_depth(const std::string& site) const {
  const auto it = site_pipeline_->find(site);
  return it == site_pipeline_->end() ? 0 : it->second;
}

void GridManager::set_depth_gauge(const std::string& site,
                                  std::size_t depth) {
  util::Gauge*& gauge = depth_gauges_[site];
  if (gauge == nullptr) {
    gauge = &host_.metrics().gauge("submit_pipeline_depth",
                                   {{"user", user_}, {"site", site}});
  }
  gauge->set(host_.now(), static_cast<double>(depth));
}

void GridManager::begin_pipeline(std::uint64_t job_id,
                                 const std::string& site) {
  if (!pipeline_site_of_->emplace(job_id, site).second) return;
  set_depth_gauge(site, ++(*site_pipeline_)[site]);
}

void GridManager::end_pipeline(std::uint64_t job_id) {
  const auto it = pipeline_site_of_->find(job_id);
  if (it == pipeline_site_of_->end()) return;
  const std::string site = it->second;
  pipeline_site_of_->erase(it);
  std::size_t& depth = (*site_pipeline_)[site];
  if (depth > 0) --depth;
  set_depth_gauge(site, depth);
  pump_site(site);  // the freed slot refills without waiting for a tick
}

void GridManager::prune_pipeline() {
  for (auto it = pipeline_site_of_->begin(); it != pipeline_site_of_->end();) {
    const std::uint64_t id = (it++)->first;  // end_pipeline erases
    const Job* job = schedd_.find(id);
    // A slot is owed while the submit is in flight or the job sits at the
    // site without an ACTIVE sighting; anything else (held, removed,
    // terminal with a lost callback) is reclaimed here.
    const bool owed =
        job && (submitting_->count(id) != 0 ||
                (job->status == JobStatus::kRunning &&
                 job->remote_state != "ACTIVE"));
    if (!owed) end_pipeline(id);
  }
}

void GridManager::drive_idle_jobs() {
  for (const std::uint64_t id : schedd_.idle_jobs(Universe::kGrid)) {
    if (queued_->count(id) || submitting_->count(id)) continue;
    enqueue_idle(id);
  }
  pump_all();
}

void GridManager::enqueue_idle(std::uint64_t job_id) {
  const auto job = schedd_.query(job_id);
  if (!job || job->status != JobStatus::kIdle) return;
  if (!job->gram_contact.empty()) {
    // Released-from-hold with a live site contact: reconnect, don't queue.
    reattach(*job);
    return;
  }
  queued_->insert(job_id);
  // A persisted seq may already be committed at the site it was sent to,
  // so it is only ever sent again there, never to a brokered site.
  const std::string& site =
      job->gram_seq != 0 ? job->gram_site : job->desc.grid_site;
  if (!site.empty()) {
    (*site_ready_)[site].push_back(job_id);
    return;
  }
  chooser_(*job, [this, job_id](std::optional<sim::Address> gatekeeper) {
    if (queued_->count(job_id) == 0) return;  // dropped meanwhile (reboot)
    if (!gatekeeper) {
      // No candidate resource right now; try again next tick.
      queued_->erase(job_id);
      return;
    }
    (*site_ready_)[gatekeeper->host].push_back(job_id);
    pump_site(gatekeeper->host);
  });
}

void GridManager::pump_all() {
  // Site-name order (map order), job-id order within each site's queue:
  // the deterministic issue order the traces and the explorer rely on.
  for (const auto& [site, queue] : *site_ready_) repump_->insert(site);
  pump_site("");  // drain repump_; "" names no site and pumps nothing
}

void GridManager::pump_site(const std::string& site) {
  if (pump_in_progress_) {
    // A completion callback freed a slot while the outer pump is mid-loop:
    // defer, the outermost call drains below.
    repump_->insert(site);
    return;
  }
  pump_in_progress_ = true;
  do_pump(site);
  while (!repump_->empty()) {
    const std::string next = *repump_->begin();
    repump_->erase(repump_->begin());
    do_pump(next);
  }
  pump_in_progress_ = false;
}

void GridManager::do_pump(const std::string& site) {
  const auto it = site_ready_->find(site);
  if (it == site_ready_->end()) return;
  std::deque<std::uint64_t>& queue = it->second;
  while (!queue.empty()) {
    if (options_.max_pending_per_site > 0 &&
        pipeline_depth(site) >= options_.max_pending_per_site) {
      return;
    }
    if (options_.max_submitted_jobs > 0 &&
        submitting_->size() +
                schedd_.count(Universe::kGrid, JobStatus::kRunning) >=
            options_.max_submitted_jobs) {
      return;
    }
    const std::uint64_t job_id = queue.front();
    queue.pop_front();
    queued_->erase(job_id);
    const auto job = schedd_.query(job_id);
    if (!job || job->status != JobStatus::kIdle ||
        submitting_->count(job_id)) {
      continue;  // moved on (held/removed/re-driven) while waiting
    }
    submitting_->insert(job_id);
    begin_pipeline(job_id, site);
    submit_to(job_id, sim::Address{site, gram::kGatekeeperService});
  }
}

void GridManager::reattach(const Job& job) {
  // The job already lives at a site (e.g. it was held for a credential
  // refresh and released): reconnect to the existing JobManager instead of
  // submitting a second copy. The site probe handles a JobManager that
  // died in the meantime.
  (*contact_to_job_)[job.gram_contact] = job.id;
  schedd_.log().record(host_.now(), job.id, LogEventKind::kReconnected,
                       "release: reattaching to " + job.gram_contact);
  schedd_.with_job(job.id, [](Job& j) { j.status = JobStatus::kRunning; });
  probe_.watch(job.id, job.gram_site, 1.0);
}

void GridManager::submit_to(std::uint64_t job_id,
                            const sim::Address& gatekeeper) {
  const auto job = schedd_.query(job_id);
  if (!job || job->status != JobStatus::kIdle) {
    // Held or removed while its (re-)drive waited: nothing is sent.
    submitting_->erase(job_id);
    end_pipeline(job_id);
    return;
  }
  // Allocate (or reuse, during crash recovery) the persisted sequence
  // number BEFORE sending: this is what makes the submission exactly-once.
  std::uint64_t seq = job->gram_seq;
  if (seq == 0) {
    seq = gram_.allocate_seq();
    schedd_.with_job(job_id, [seq, &gatekeeper](Job& j) {
      j.gram_seq = seq;
      j.gram_site = gatekeeper.host;
    });
  }
  ++submissions_;
  count("gridmanager.submissions");
  const sim::SpanId submit_span = host_.tracer().begin_span(
      "gram.submit", job_id, host_.name(), host_.epoch(),
      host_.tracer().job_root(host_.name(), job_id),
      "site=" + gatekeeper.host + " seq=" + std::to_string(seq));
  gram_.submit_with_seq(
      seq, gatekeeper, spec_for(*job), callback_address(),
      [this, job_id, seq, gatekeeper,
       submit_span](gram::SiteReply<std::string> reply) {
        submitting_->erase(job_id);
        const auto current = schedd_.query(job_id);
        if (!current || current->status == JobStatus::kRemoved) {
          host_.tracer().end_span(submit_span, "stale", "job removed");
          end_pipeline(job_id);
          if (reply.answer) gram_.cancel(*reply.answer, [](bool) {});
          return;
        }
        if (reply.refused) {
          // The site is up and will not run it: the user must act (§4.3).
          host_.tracer().end_span(submit_span, "error", "site refused");
          end_pipeline(job_id);
          schedd_.hold(job_id, "site " + gatekeeper.host +
                                   " refused: " + *reply.refused);
          return;
        }
        if (!reply.answer) {
          // Site never answered: release the job to be brokered elsewhere.
          host_.tracer().end_span(submit_span, "error", "site unreachable");
          end_pipeline(job_id);
          schedd_.mark_idle_again(job_id, LogEventKind::kResubmitted,
                                  "site unreachable: " + gatekeeper.host);
          ++resubmissions_;
          count("gridmanager.resubmissions");
          return;
        }
        const std::string& contact = *reply.answer;
        host_.tracer().end_span(submit_span, "ok", "contact=" + contact);
        // Crash point: submission committed remotely but not yet recorded
        // in the queue — the §4.2 ladder must reconcile via the persisted
        // seq, not run the job twice.
        if (host_.crash_point("gridmanager.submit_ack")) return;
        (*contact_to_job_)[contact] = job_id;
        schedd_.mark_grid_submitted(job_id, seq, gatekeeper.host, contact);
        probe_.watch(job_id, gatekeeper.host, options_.probe_interval);
      });
}

void GridManager::dispatch(const sim::Message& message) {
  if (message.type == "gram.callback") {
    on_gram_callback(message);
    return;
  }
  // gram.callback is the only notify aimed at this service; anything else
  // is drift.
  sim::rpc_unknown(host_, network_, message, callback_address(),
                   "gridmanager");
}

void GridManager::on_gram_callback(const sim::Message& message) {
  const std::string contact = message.body.get("contact");
  const auto it = contact_to_job_->find(contact);
  if (it == contact_to_job_->end()) return;  // stale / unknown
  handle_remote_state(it->second, message.body.get("state"),
                      message.body.get("why"));
}

void GridManager::handle_remote_state(std::uint64_t job_id,
                                      const std::string& state,
                                      const std::string& why) {
  // Every branch reads the entry before it changes the job.
  const Job* job = schedd_.find(job_id);
  if (!job || job->status == JobStatus::kCompleted ||
      job->status == JobStatus::kRemoved) {
    pending_since_->erase(job_id);  // terminal: drop the queued-at-site watch
    end_pipeline(job_id);
    return;
  }
  if (job->status == JobStatus::kHeld &&
      (state == "PENDING" || state == "ACTIVE")) {
    // Only a release changes a held job's status; until then the site's
    // word is recorded, so a site copy that starts does not un-hold it.
    if (job->remote_state != state) {
      schedd_.with_job(job_id, [&state](Job& j) { j.remote_state = state; });
    }
    return;
  }
  if (state == "ACTIVE" && job->remote_state != "ACTIVE") {
    pending_since_->erase(job_id);
    end_pipeline(job_id);  // the site started it; its slot frees up
    schedd_.mark_executing(job_id, "site=" + job->gram_site);
    return;
  }
  if (state == "DONE") {
    pending_since_->erase(job_id);
    end_pipeline(job_id);
    schedd_.mark_completed(job_id);
    degraded_since_->erase(job_id);  // job left the site; outage moot
    return;
  }
  if (state == "FAILED") {
    pending_since_->erase(job_id);
    end_pipeline(job_id);
    degraded_since_->erase(job_id);
    if (migrating_->erase(job_id)) {
      // This FAILED is our own migration cancel taking effect: re-broker
      // without charging the job an attempt.
      ++queued_migrations_;
      count("gridmanager.migrations");
      contact_to_job_->erase(job->gram_contact);
      schedd_.mark_idle_again(job_id, LogEventKind::kResubmitted,
                              "migrated: queued too long at " +
                                  job->gram_site);
      return;
    }
    if (job->attempts >= job->desc.max_attempts) {
      schedd_.hold(job_id, "too many failures; last: " + why);
    } else {
      ++resubmissions_;
      count("gridmanager.resubmissions");
      schedd_.mark_idle_again(job_id, LogEventKind::kResubmitted,
                              "remote failure: " + why);
    }
    return;
  }
  // PENDING / STAGE_IN / UNSUBMITTED, or ACTIVE again: remember the remote
  // state. A report that changes nothing writes nothing.
  if (job->remote_state != state) {
    schedd_.with_job(job_id, [&state](Job& j) { j.remote_state = state; });
  }
  if (state == "PENDING") {
    pending_since_->emplace(job_id, host_.now());  // keep first-seen time
    maybe_migrate_pending(job_id);
  } else {
    pending_since_->erase(job_id);
  }
}

void GridManager::maybe_migrate_pending(std::uint64_t job_id) {
  if (options_.max_pending_seconds <= 0) return;
  const auto since = pending_since_->find(job_id);
  if (since == pending_since_->end()) return;
  if (host_.now() - since->second < options_.max_pending_seconds) return;
  const auto job = schedd_.query(job_id);
  if (!job || job->remote_state != "PENDING" || job->gram_contact.empty()) {
    return;
  }
  // Stuck in a remote queue: cancel there, and only once the cancel has
  // demonstrably taken effect (the JobManager's FAILED callback, or the
  // cancel ack) release the job for re-brokering — re-submitting while the
  // old copy might still run would break exactly-once.
  pending_since_->erase(job_id);
  migrating_->insert(job_id);
  const std::string contact = job->gram_contact;
  const std::string site = job->gram_site;
  gram_.cancel(contact, [this, job_id, contact, site](bool ok) {
    if (!ok) {
      // Unreachable site: leave the job where it is; the site probe
      // keeps watching and migration can be retried on a later PENDING
      // report.
      migrating_->erase(job_id);
      pending_since_->emplace(job_id, host_.now());
      return;
    }
    // Usually the JobManager's FAILED callback lands first and does the
    // re-queue; this path covers a lost callback.
    if (!migrating_->erase(job_id)) return;
    const auto current = schedd_.query(job_id);
    if (!current || current->gram_contact != contact ||
        current->status != JobStatus::kRunning) {
      return;  // state moved on while the cancel was in flight
    }
    contact_to_job_->erase(contact);
    end_pipeline(job_id);
    ++queued_migrations_;
    count("gridmanager.migrations");
    schedd_.mark_idle_again(job_id, LogEventKind::kResubmitted,
                            "migrated: queued too long at " + site);
  });
}

std::optional<std::string> GridManager::probe_contact(const std::string& site,
                                                      std::uint64_t id) {
  const Job* job = schedd_.find(id);
  if (job && (job->gram_site != site || job->gram_contact.empty())) {
    // Moved on (resubmitted, migrated): its slot and recovery window
    // belong to its new attachment, not to this site.
    return std::nullopt;
  }
  if (!job || job->status == JobStatus::kCompleted ||
      job->status == JobStatus::kRemoved || job->status == JobStatus::kHeld) {
    pending_since_->erase(id);  // backstop for lost terminal callbacks
    end_pipeline(id);
    return std::nullopt;
  }
  return job->gram_contact;
}

void GridManager::probe_site(const std::string& site,
                             std::vector<std::uint64_t> jobs,
                             std::vector<std::string> contacts,
                             sim::ProbeLoop::Answered answered) {
  count("gridmanager.probes");
  gram_.status_all(
      sim::Address{site, gram::kGatekeeperService}, contacts,
      [this, site, jobs = std::move(jobs), contacts,
       answered = std::move(answered)](
          gram::SiteReply<gram::GramClient::SiteReport> report) {
        on_site_report(site, jobs, contacts, report);
        answered(report.answer || report.refused);
      });
}

void GridManager::on_site_report(
    const std::string& site, const std::vector<std::uint64_t>& jobs,
    const std::vector<std::string>& contacts,
    const gram::SiteReply<gram::GramClient::SiteReport>& report) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::uint64_t id = jobs[i];
    const std::string& contact = contacts[i];
    const Job* job = schedd_.find(id);
    if (!job || job->gram_contact != contact) continue;  // moved meanwhile
    if (report.refused) {
      // An answer, not an outage: nothing to recover or restart. The loop
      // drops the held job at its next firing (DESIGN.md §6).
      schedd_.hold(id, "site " + site + " refused: " + *report.refused);
      continue;
    }
    if (!report.answer) {
      // F2 or F4 — indistinguishable from here. The loop probes again
      // after kRecoverRetry; when the site answers, its contacts are
      // reported (reconnect) or MISSING (restart).
      note_degraded(id, "site silent: " + site);
      continue;
    }
    const std::optional<gram::GramJobState>& state = (*report.answer)[i];
    if (!state) {
      restart_jobmanager(id, contact);
      continue;
    }
    // An open outage ends the moment the JobManager answers again (F2/F4
    // reconnect, F3 reattach).
    note_recovered(id, resend_gass_if_owed(contact)
                           ? "reattached after reboot"
                           : "jobmanager answered probe");
    // Backstop for lost callbacks.
    handle_remote_state(id, gram::to_string(*state), "poll");
  }
}

void GridManager::restart_jobmanager(std::uint64_t job_id,
                                     const std::string& contact) {
  // F1: the Gatekeeper answered but holds no live JobManager for the
  // contact. Restart it; the replacement re-attaches to the local job (or
  // reports it finished).
  note_degraded(job_id, "jobmanager missing: " + contact);
  if (!restarting_->insert(contact).second) return;  // already in flight
  schedd_.log().record(host_.now(), job_id, LogEventKind::kJobManagerLost,
                       "gatekeeper up; restarting jobmanager");
  ++jm_restarts_;
  count("gridmanager.jm_restarts");
  gram_.restart_jobmanager(
      contact,
      [this, job_id, contact](std::optional<gram::GramJobState> state) {
        restarting_->erase(contact);
        // No answer: the site went silent; its next probe decides again.
        if (!state) return;
        note_recovered(job_id, resend_gass_if_owed(contact)
                                   ? "jobmanager restarted after reboot"
                                   : "jobmanager restarted");
        schedd_.log().record(host_.now(), job_id, LogEventKind::kReconnected,
                             "");
      });
}

bool GridManager::resend_gass_if_owed(const std::string& contact) {
  if (gass_owed_->erase(contact) == 0) return false;
  gram_.update_gass(contact, gass_.address(), [](bool) {});
  return true;
}

void GridManager::recover_after_boot() {
  // F3 recovery: rebuild in-memory state from the persistent queue.
  submitting_->clear();
  contact_to_job_->clear();
  restarting_->clear();
  gass_owed_->clear();
  degraded_since_->clear();  // outage windows restart from the reboot
  site_ready_->clear();
  queued_->clear();
  pipeline_site_of_->clear();
  for (auto& [site, depth] : *site_pipeline_) {
    depth = 0;
    set_depth_gauge(site, 0);
  }
  artifacts_->clear();  // the GASS store is scratch; re-stage on demand
  count("gridmanager.boot_recoveries");
  // Boot-time recovery walks the whole persistent queue by design (§4.2 F3).
  // lint-allow(schedd-full-scan): one-shot recovery scan
  for (const auto& [id, job] : schedd_.jobs()) {
    if (job.desc.universe != Universe::kGrid) continue;
    if (job.status == JobStatus::kCompleted ||
        job.status == JobStatus::kRemoved || job.status == JobStatus::kHeld) {
      continue;
    }
    if (!job.gram_contact.empty()) {
      // We had an acknowledged submission: reconnect. The site's probe,
      // sent at once, classifies every contact there in one round trip: a
      // live JobManager gets our (possibly new) GASS address, a MISSING
      // one is restarted first. Recovery latency for F3 is measured from
      // the reboot to the re-established contact. The executable is staged
      // again for a JobManager that has yet to fetch it.
      stage_artifact(job);
      note_degraded(id, "submit machine rebooted");
      (*contact_to_job_)[job.gram_contact] = id;
      if (job.remote_state != "ACTIVE") {
        // Still working through the site's queue: it owes a pipeline slot.
        begin_pipeline(id, job.gram_site);
      }
      gass_owed_->insert(job.gram_contact);
      probe_.watch(id, job.gram_site, 0.0);
    } else if (job.gram_seq != 0) {
      // Crash hit between allocating the sequence number and learning the
      // contact: re-drive with the SAME seq to the SAME site; dedup at the
      // gatekeeper makes this safe even if the original request did get
      // through.
      submitting_->insert(id);
      begin_pipeline(id, job.gram_site);
      const std::uint64_t job_id = id;
      const sim::Address gatekeeper{job.gram_site, gram::kGatekeeperService};
      host_.post(1.0, [this, job_id, gatekeeper] {
        submit_to(job_id, gatekeeper);
      });
    }
    // else: plain Idle; the tick loop re-drives it.
  }
  tick();
}

void GridManager::audit(std::vector<std::string>& out) const {
  // Conservation, schedd -> gridmanager: every grid job the queue believes
  // is running at a site must be tracked here and watched by that site's
  // probe (otherwise its callbacks are dropped and no probe backs them up),
  // unless the host is down or the daemon has not started managing the
  // queue yet.
  if (host_.alive() && started_) {
    // The audit cross-checks tracking maps against the whole queue.
    // lint-allow(schedd-full-scan): audit site
    for (const auto& [id, job] : schedd_.jobs()) {
      if (job.desc.universe != Universe::kGrid ||
          job.status != JobStatus::kRunning || job.gram_contact.empty()) {
        continue;
      }
      if (!probe_.watching(job.gram_site, id)) {
        out.push_back("running job " + std::to_string(id) + " at " +
                      job.gram_site + " is not watched by its site probe");
      }
      const auto tracked = contact_to_job_->find(job.gram_contact);
      if (tracked == contact_to_job_->end()) {
        out.push_back("running job " + std::to_string(id) + " contact " +
                      job.gram_contact + " untracked by the gridmanager");
      } else if (tracked->second != id) {
        out.push_back("contact " + job.gram_contact + " of running job " +
                      std::to_string(id) + " tracked for job " +
                      std::to_string(tracked->second));
      }
    }
  }
  // Conservation, gridmanager -> schedd: tracked state must refer to real
  // queue entries. Stale contact entries for jobs that moved on are part of
  // the design (late callbacks must be droppable), but entries for unknown
  // jobs mean the maps and the queue have diverged.
  for (const auto& [contact, id] : *contact_to_job_) {
    const auto job = schedd_.query(id);
    if (!job) {
      out.push_back("contact " + contact + " tracked for unknown job " +
                    std::to_string(id));
      continue;
    }
    if (job->status == JobStatus::kRunning && !job->gram_contact.empty() &&
        job->gram_contact != contact &&
        contact_to_job_->count(job->gram_contact) == 0) {
      out.push_back("running job " + std::to_string(id) +
                    " reachable only via stale contact " + contact);
    }
  }
  for (const std::uint64_t id : *submitting_) {
    if (!schedd_.query(id)) {
      out.push_back("in-flight submit for unknown job " + std::to_string(id));
    }
  }
  probe_.for_each([this, &out](const std::string& site, std::uint64_t id) {
    if (!schedd_.query(id)) {
      out.push_back("site " + site + " watches unknown job " +
                    std::to_string(id));
    }
  });
  // Pipeline conservation: the per-site depth counters must equal the
  // per-site cardinality of pipeline_site_of_, and every slot holder /
  // queued job must be a real queue entry.
  std::map<std::string, std::size_t> recomputed;
  for (const auto& [id, site] : *pipeline_site_of_) {
    ++recomputed[site];
    if (!schedd_.query(id)) {
      out.push_back("pipeline slot held by unknown job " +
                    std::to_string(id));
    }
  }
  for (const auto& [site, depth] : *site_pipeline_) {
    if (depth == 0) continue;
    const auto it = recomputed.find(site);
    if (it == recomputed.end() || it->second != depth) {
      out.push_back("pipeline depth for " + site + " is " +
                    std::to_string(depth) + " but " +
                    std::to_string(it == recomputed.end() ? 0 : it->second) +
                    " jobs hold slots there");
    }
  }
  for (const std::uint64_t id : *queued_) {
    if (!schedd_.query(id)) {
      out.push_back("ready queue holds unknown job " + std::to_string(id));
    }
  }
}

void GridManager::reforward_credential() {
  for (const auto& [contact, job_id] : *contact_to_job_) {
    const auto job = schedd_.query(job_id);
    if (!job || job->status != JobStatus::kRunning) continue;
    gram_.refresh_remote_credential(contact, [](bool) {});
  }
}

}  // namespace condorg::core
