#include "condorg/gram/gatekeeper.h"

#include <cstdlib>
#include <cstring>

#include "condorg/sim/rpc.h"
#include "condorg/util/strings.h"

namespace condorg::gram {
namespace {
std::string dedup_key(const std::string& client_id, std::uint64_t seq) {
  return "gram/seq/" + client_id + "/" + std::to_string(seq);
}
constexpr const char* kContactCounterKey = "gram/contact_counter";
constexpr const char* kJobRecordPrefix = "gram/job/";
}  // namespace

Gatekeeper::Gatekeeper(sim::Host& host, sim::Network& network,
                       batch::LocalScheduler& scheduler,
                       GatekeeperOptions options)
    : host_(host),
      network_(network),
      scheduler_(scheduler),
      options_(std::move(options)),
      jobmanagers_(host, "gatekeeper.jobmanagers"),
      accepted_counter_(count("gatekeeper.accepted")),
      duplicates_counter_(count("gatekeeper.duplicates")),
      auth_failures_counter_(count("gatekeeper.auth_failures")),
      jm_started_counter_(count("gatekeeper.jm_started")),
      jm_restarted_counter_(count("gatekeeper.jm_restarted")),
      jm_state_counters_(JobManagerStateCounters::for_site(host.metrics(),
                                                           host.name())) {
  mutate_dedup_ = std::getenv("CONDORG_MUTATE_DEDUP") != nullptr;
  install();
  staging_cache_ = std::make_unique<gass::StagingCache>(
      host_, network_, std::string(kGatekeeperService) + ".stagecache");
  boot_id_ = host_.add_boot([this] {
    install();
    // Scratch space is gone after a crash: the replacement cache starts
    // cold and re-fetches artifacts on demand.
    staging_cache_ = std::make_unique<gass::StagingCache>(
        host_, network_, std::string(kGatekeeperService) + ".stagecache");
  });
  // Host crash: every JobManager process dies (and the staging cache with
  // them — it holds their waiter callbacks). Their stable records remain;
  // clients must ask for restarts (§4.2's recovery ladder).
  crash_listener_ = host_.add_crash_listener([this] {
    jobmanagers_->clear();
    staging_cache_.reset();
  });
}

Gatekeeper::~Gatekeeper() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive()) host_.unregister_service(kGatekeeperService);
}

void Gatekeeper::install() {
  host_.register_service(kGatekeeperService,
                         [this](const sim::Message& m) { on_message(m); });
}

std::string Gatekeeper::new_contact() {
  // Contacts must be unique across host restarts: persist the counter.
  std::uint64_t counter = 0;
  if (const auto stored = host_.disk().get(kContactCounterKey)) {
    counter = std::stoull(*stored);
  }
  ++counter;
  host_.disk().put(kContactCounterKey, std::to_string(counter));
  return host_.name() + ":" + std::to_string(counter);
}

util::Counter& Gatekeeper::count(const char* name) {
  return host_.metrics().counter(name, {{"site", host_.name()}});
}

JobManager* Gatekeeper::find_jobmanager(const std::string& contact) {
  const auto it = jobmanagers_->find(contact);
  if (it == jobmanagers_->end()) return nullptr;
  return it->second->process_alive() ? it->second.get() : nullptr;
}

bool Gatekeeper::kill_jobmanager(const std::string& contact) {
  JobManager* jm = find_jobmanager(contact);
  if (jm == nullptr) return false;
  jm->kill_process();
  return true;
}

void Gatekeeper::audit(std::vector<std::string>& out) const {
  // callback|tag -> contact of the live JobManager already running that job.
  std::map<std::string, std::string> job_owner;
  for (const auto& [contact, jm] : *jobmanagers_) {
    if (contact != jm->contact()) {
      out.push_back("jobmanager for " + jm->contact() +
                    " registered under contact " + contact);
    }
    if (!jm->process_alive()) continue;
    jm->audit(out);
    // Exactly-once, resource side: once dedup is on, a retransmitted submit
    // maps to the existing JobManager, so two live committed non-terminal
    // JobManagers for one client job mean the job is running twice.
    // Uncommitted JobManagers never start the job and the A1 ablation
    // (dedup off) duplicates by design, so both are exempt.
    if (!options_.dedup_submissions || !jm->committed() ||
        is_terminal(jm->state())) {
      continue;
    }
    const std::string key =
        jm->client_callback().str() + "|" + jm->spec().tag;
    const auto [it, inserted] = job_owner.emplace(key, contact);
    if (!inserted) {
      out.push_back("job " + jm->spec().tag + " live in two jobmanagers: " +
                    it->second + " and " + contact);
    }
  }

  // Exactly-once, stable-storage side: the dedup key maps a retransmitted
  // (client_id, seq) onto the existing job, so at most one job record may
  // ever be created per pair. A second record — even an uncommitted one a
  // crashed-and-restarted front-end left behind — means a retransmission
  // was accepted as a fresh job. Records outlive JobManager processes, so
  // this scan catches duplicates the in-memory check above cannot see.
  if (options_.dedup_submissions) {
    std::map<std::string, std::string> record_owner;  // client|seq -> contact
    for (const auto& key : host_.disk().keys_with_prefix(kJobRecordPrefix)) {
      const auto text = host_.disk().get(key);
      if (!text) continue;
      const sim::Payload record = sim::Payload::deserialize(*text);
      const std::string client = record.get("client_id");
      const std::uint64_t seq = record.get_uint("client_seq");
      if (client.empty() || seq == 0) continue;  // pre-identity submitter
      const std::string contact = key.substr(std::strlen(kJobRecordPrefix));
      const std::string pair = client + "/" + std::to_string(seq);
      const auto [it, inserted] = record_owner.emplace(pair, contact);
      if (!inserted && it->second != contact) {
        out.push_back("submission " + pair + " has two job records: " +
                      it->second + " and " + contact);
      }
    }
  }
}

void Gatekeeper::on_message(const sim::Message& message) {
  const gsi::AuthResult auth =
      gsi::authenticate(options_.auth, message.body, host_.now());
  if (!auth.ok) {
    ++auth_failures_;
    auth_failures_counter_.inc();
    sim::rpc_refuse(network_, message, address(), auth.why);
    return;
  }

  sim::Tracer& tracer = host_.tracer();
  if (tracer.enabled() && message.type != "gram.status_all") {
    // Milestone for the critical-path taxonomy: request authenticated at
    // the gatekeeper (the interval ending here is the submit RTT's request
    // leg; auth itself is synchronous, so the auth phase is honest zeros).
    tracer.event("gk.auth", job_from_tag(message.body.get("spec.tag")),
                 host_.name(), host_.epoch(), message.type);
  }

  if (message.type == "gram.status_all") {
    handle_status_all(message);
    return;
  }
  if (message.type == "gram.submit") {
    handle_submit(message);
    return;
  }
  if (message.type == "gram.restart_jobmanager") {
    handle_restart(message);
    return;
  }
  sim::rpc_unknown(host_, network_, message, address(), "gatekeeper");
}

void Gatekeeper::handle_submit(const sim::Message& message) {
  // Crash point: request authenticated, nothing persisted yet — to the
  // client this is indistinguishable from a lost request.
  if (host_.crash_point("gatekeeper.submit_recv")) return;
  sim::Payload reply;
  const std::string client_id = message.body.get("client_id");
  const std::uint64_t seq = message.body.get_uint("seq");

  // Two-phase commit, resource side: an already-seen (client_id, seq) means
  // our earlier response was lost — return the same contact, do NOT start a
  // second job.
  const std::string key = dedup_key(client_id, seq);
  if (options_.dedup_submissions && !mutate_dedup_) {
    if (const auto existing = host_.disk().get(key)) {
      ++duplicates_;
      duplicates_counter_.inc();
      reply.set("contact", *existing);
      reply.set_bool("duplicate", true);
      sim::rpc_reply(network_, message, address(), std::move(reply));
      return;
    }
  }

  GramJobSpec spec = GramJobSpec::from_payload(message.body);
  if (spec.walltime_limit > options_.max_walltime) {
    spec.walltime_limit = options_.max_walltime;  // site policy cap
  }
  const std::string contact = new_contact();
  if (options_.dedup_submissions) host_.disk().put(key, contact);

  const bool auto_commit = !message.body.get_bool("two_phase", true);
  const sim::Address callback =
      sim::Address::parse(message.body.get("callback"));
  (*jobmanagers_)[contact] = std::make_unique<JobManager>(
      host_, network_, scheduler_, contact, std::move(spec), callback,
      auto_commit, message.body.get("credential"), &jm_state_counters_,
      client_id, seq, staging_cache_.get());
  ++accepted_;
  ++jm_started_;
  accepted_counter_.inc();
  jm_started_counter_.inc();

  // Crash point: JobManager created and dedup key persisted, response not
  // sent — the client must retransmit and the dedup key must absorb it.
  if (host_.crash_point("gatekeeper.submit_accepted")) return;

  reply.set("contact", contact);
  reply.set_uint("seq", seq);  // echoed sequence number
  sim::rpc_reply(network_, message, address(), std::move(reply));
}

void Gatekeeper::handle_restart(const sim::Message& message) {
  // Crash point: restart request received; the reattach ladder must cope
  // with the front-end dying mid-recovery.
  if (host_.crash_point("gatekeeper.restart_recv")) return;
  sim::Payload reply;
  const std::string contact = message.body.get("contact");
  if (JobManager* jm = find_jobmanager(contact)) {
    // Still running: nothing to restart.
    reply.set("state", to_string(jm->state()));
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  if (!host_.disk().contains(JobManager::record_key(contact))) {
    sim::rpc_refuse(network_, message, address(),
                    "unknown contact: " + contact);
    return;
  }
  // Reattach from stable storage; the new JobManager works out whether the
  // local job is queued, running, or finished while unobserved.
  (*jobmanagers_)[contact] = std::make_unique<JobManager>(
      host_, network_, scheduler_, contact, &jm_state_counters_,
      staging_cache_.get());
  ++jm_started_;
  jm_started_counter_.inc();
  jm_restarted_counter_.inc();
  reply.set("state", to_string((*jobmanagers_)[contact]->state()));
  sim::rpc_reply(network_, message, address(), std::move(reply));
}

void Gatekeeper::handle_status_all(const sim::Message& message) {
  // Crash point: site probe received; the GridManager reads the silence
  // as F2/F4 and probes again later.
  if (host_.crash_point("gatekeeper.status_all_recv")) return;
  // The GridManager's site probe. Any answer tells it the front-end is up,
  // so a MISSING contact is F1 (only that JobManager died), while silence
  // is a dead front-end or a partition (F2/F4).
  std::vector<std::string> states;
  for (const std::string& contact :
       util::split(message.body.get("contacts"), ',')) {
    const JobManager* jm = find_jobmanager(contact);
    states.emplace_back(jm != nullptr ? to_string(jm->state())
                                      : kMissingState);
  }
  sim::Payload reply;
  reply.set("states", util::join(states, ","));
  sim::rpc_reply(network_, message, address(), std::move(reply));
}

}  // namespace condorg::gram
