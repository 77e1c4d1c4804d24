#include "condorg/gram/jobmanager.h"

#include <charconv>
#include <optional>
#include <string_view>
#include <utility>

#include "condorg/util/strings.h"

namespace condorg::gram {
namespace {
constexpr double kLocalPollInterval = 15.0;   // PENDING->ACTIVE grid step
constexpr double kStageTimeout = 600.0;
constexpr double kStageRetryDelay = 60.0;
constexpr int kStageRetries = 30;

// The state record: state, committed, local job id and streamed chunks in
// that order, one separator between fields.
constexpr char kStateSep = '\x1f';

struct StateRecord {
  std::string state;
  bool committed = false;
  std::uint64_t local_job_id = 0;
  std::uint64_t streamed_chunks = 0;
};

std::optional<StateRecord> decode_state(std::string_view text) {
  const auto fields = util::split(text, kStateSep);
  if (fields.size() != 4) return std::nullopt;
  StateRecord record;
  record.state = fields[0];
  record.committed = fields[1] == "1";
  std::from_chars(fields[2].data(), fields[2].data() + fields[2].size(),
                  record.local_job_id);
  std::from_chars(fields[3].data(), fields[3].data() + fields[3].size(),
                  record.streamed_chunks);
  return record;
}
}  // namespace

std::string JobManager::record_key(const std::string& contact) {
  return "gram/job/" + contact;
}

std::string JobManager::state_key(const std::string& contact) {
  return "gram/state/" + contact;
}

JobManagerStateCounters JobManagerStateCounters::for_site(
    util::MetricsRegistry& metrics, const std::string& site) {
  JobManagerStateCounters counters;
  for (std::size_t i = 0; i < counters.by_state.size(); ++i) {
    const auto state = static_cast<GramJobState>(i);
    counters.by_state[i] = &metrics.counter(
        "jobmanager.state_changes",
        {{"site", site}, {"state", to_string(state)}});
  }
  return counters;
}

JobManager::JobManager(sim::Host& host, sim::Network& network,
                       batch::LocalScheduler& scheduler, std::string contact,
                       GramJobSpec spec, sim::Address client_callback,
                       bool auto_commit, std::string forwarded_credential,
                       const JobManagerStateCounters* state_counters,
                       std::string client_id, std::uint64_t client_seq,
                       gass::StagingCache* staging_cache)
    : host_(host),
      network_(network),
      scheduler_(scheduler),
      contact_(std::move(contact)),
      state_key_(state_key(contact_)),
      spec_(std::move(spec)),
      client_callback_(std::move(client_callback)),
      client_id_(std::move(client_id)),
      client_seq_(client_seq),
      auto_commit_(auto_commit),
      state_(host, "jobmanager.state", GramJobState::kUnsubmitted),
      forwarded_credential_(std::move(forwarded_credential)),
      state_counters_(state_counters),
      staging_cache_(staging_cache) {
  rpc_ = std::make_unique<sim::RpcClient>(
      host_, network_, jobmanager_service(contact_) + ".rpc");
  gass_ = std::make_unique<gass::FileClient>(
      host_, network_, jobmanager_service(contact_) + ".gass");
  gass_->set_credential_text(forwarded_credential_);
  install();
  persist_description();
  persist_state();
  crash_listener_ = host_.add_crash_listener([this] { process_alive_ = false; });
  sim::Tracer& tracer = host_.tracer();
  if (tracer.enabled()) {
    // Milestone for the critical-path taxonomy: the interval ending here is
    // the gatekeeper's auth+spawn work.
    tracer.event("jm.created", job_from_tag(spec_.tag), host_.name(),
                 host_.epoch(), contact_);
  }
  if (auto_commit_) commit();
}

JobManager::JobManager(sim::Host& host, sim::Network& network,
                       batch::LocalScheduler& scheduler, std::string contact,
                       const JobManagerStateCounters* state_counters,
                       gass::StagingCache* staging_cache)
    : host_(host),
      network_(network),
      scheduler_(scheduler),
      contact_(std::move(contact)),
      state_key_(state_key(contact_)),
      state_(host, "jobmanager.state", GramJobState::kUnsubmitted),
      state_counters_(state_counters),
      staging_cache_(staging_cache) {
  rpc_ = std::make_unique<sim::RpcClient>(
      host_, network_, jobmanager_service(contact_) + ".rpc");
  gass_ = std::make_unique<gass::FileClient>(
      host_, network_, jobmanager_service(contact_) + ".gass");
  load_record();
  gass_->set_credential_text(forwarded_credential_);
  install();
  crash_listener_ = host_.add_crash_listener([this] { process_alive_ = false; });

  // Re-attach: figure out where the job got to while we were gone.
  if (is_terminal(state_)) {
    // Nothing to do; report the stored outcome to the (possibly new)
    // GridManager so it stops waiting.
    send_callback("reattach: already terminal");
  } else if (local_job_id_ != 0) {
    const auto status = scheduler_.status(local_job_id_);
    if (!status) {
      stage_out_and_finish(GramJobState::kFailed,
                           "reattach: local job vanished");
    } else if (batch::is_terminal(status->state)) {
      on_local_terminal(*status);
    } else {
      set_state(status->state == batch::JobState::kRunning
                    ? GramJobState::kActive
                    : GramJobState::kPending,
                "reattach");
      watch_scheduler();
      if (state_ == GramJobState::kActive) start_streaming();
    }
  } else if (committed_) {
    // Crashed between commit and local submission: redo staging.
    stage_in();
  }
  // else: still awaiting commit; nothing to do.
}

JobManager::~JobManager() {
  life_.revoke();
  host_.remove_crash_listener(crash_listener_);
  scheduler_.remove_job_handler(job_handler_token_);
  scheduler_.remove_job_handler(start_handler_token_);
  if (host_.alive() && process_alive_) {
    host_.unregister_service(jobmanager_service(contact_));
  }
}

void JobManager::install() {
  host_.register_service(jobmanager_service(contact_),
                         [this](const sim::Message& m) { on_message(m); });
}

void JobManager::kill_process() {
  if (!process_alive_) return;
  process_alive_ = false;
  // The tracer outlives the process: close any staging span this
  // incarnation left open (a reattached JobManager opens fresh ones).
  host_.tracer().end_span(stage_in_span_, "crashed");
  host_.tracer().end_span(stage_out_span_, "crashed");
  life_.revoke();
  scheduler_.remove_job_handler(job_handler_token_);
  scheduler_.remove_job_handler(start_handler_token_);
  job_handler_token_ = 0;
  start_handler_token_ = 0;
  host_.unregister_service(jobmanager_service(contact_));
  // The RpcClients' pending callbacks die with the process: drop them by
  // resetting (their destructors unregister reply services).
  rpc_.reset();
  gass_.reset();
}

void JobManager::persist_description() {
  sim::Payload record;
  spec_.to_payload(record);
  record.set("callback", client_callback_.str());
  record.set("client_id", client_id_);
  record.set_uint("client_seq", client_seq_);
  record.set_bool("auto_commit", auto_commit_);
  record.set("fwd_credential", forwarded_credential_);
  host_.disk().put(record_key(contact_), record.serialize());
}

void JobManager::persist_state() {
  std::string record = to_string(state_);
  record += kStateSep;
  record += committed_ ? '1' : '0';
  record += kStateSep;
  record += std::to_string(local_job_id_);
  record += kStateSep;
  record += std::to_string(streamed_chunks_);
  host_.disk().put(state_key_, std::move(record));
}

void JobManager::load_record() {
  const auto text = host_.disk().get(record_key(contact_));
  if (!text) return;  // empty record: job unknown; stays kUnsubmitted
  const sim::Payload record = sim::Payload::deserialize(*text);
  spec_ = GramJobSpec::from_payload(record);
  client_callback_ = sim::Address::parse(record.get("callback"));
  client_id_ = record.get("client_id");
  client_seq_ = record.get_uint("client_seq");
  auto_commit_ = record.get_bool("auto_commit");
  forwarded_credential_ = record.get("fwd_credential");
  const auto text_state = host_.disk().get(state_key_);
  const auto state = text_state ? decode_state(*text_state) : std::nullopt;
  if (!state) return;
  state_ = gram_state_from_string(state->state);
  committed_ = state->committed;
  local_job_id_ = state->local_job_id;
  streamed_chunks_ = state->streamed_chunks;
}

void JobManager::audit(std::vector<std::string>& out) const {
  if (!process_alive_) return;
  if (!committed_ && state_ != GramJobState::kUnsubmitted) {
    out.push_back(contact_ + " reached " + to_string(state_) +
                  " without a commit");
  }
  if ((state_ == GramJobState::kPending || state_ == GramJobState::kActive) &&
      local_job_id_ == 0) {
    out.push_back(contact_ + " is " + to_string(state_) +
                  " with no local scheduler job");
  }
  // The records on stable storage are what a post-crash replacement would
  // be rebuilt from; if the state record lags the in-memory state, recovery
  // would silently rewind the job.
  const auto text = host_.disk().get(state_key_);
  const auto record = text ? decode_state(*text) : std::nullopt;
  if (!record || !host_.disk().contains(record_key(contact_))) {
    out.push_back(contact_ + " has no stable-storage record");
    return;
  }
  if (record->state != to_string(state_)) {
    out.push_back(contact_ + " persisted state " + record->state +
                  " but is " + to_string(state_));
  }
  if (record->committed != committed_) {
    out.push_back(contact_ + " commit flag not persisted");
  }
  if (record->local_job_id != local_job_id_) {
    out.push_back(contact_ + " local job id not persisted");
  }
}

void JobManager::on_message(const sim::Message& message) {
  // A dead JobManager process cannot reply; the GRAM client recovers via
  // its own timeout followed by gram.restart_jobmanager.
  // lint-allow(reply-on-all-paths): dead process, client restarts via GRAM
  if (!process_alive_) return;
  sim::Payload reply;
  reply.set("contact", contact_);
  reply.set("state", to_string(state_));

  if (message.type == "jm.commit") {
    // Crash point: commit request received, commit not yet persisted — the
    // client must retry and the retried commit must be idempotent.
    if (host_.crash_point("jobmanager.commit_recv")) return;
    if (!committed_) commit();
    reply.set("state", to_string(state_));
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  if (message.type == "jm.cancel") {
    // Crash point: cancel received, not yet acted on — the GridManager's
    // retry must find either a cancelled job or a restartable JobManager.
    if (host_.crash_point("jobmanager.cancel_recv")) return;
    if (!is_terminal(state_)) {
      if (local_job_id_ != 0) scheduler_.cancel(local_job_id_);
      // on_local_terminal fires via the job handler for running jobs; for
      // not-yet-submitted jobs finish directly.
      if (local_job_id_ == 0) {
        stage_out_and_finish(GramJobState::kFailed, "cancelled");
      }
    }
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  if (message.type == "jm.refresh_credential") {
    // Crash point: refreshed proxy received but not persisted — the sender
    // retries, and until then we keep running on the old (shorter) proxy.
    if (host_.crash_point("jobmanager.refresh_recv")) return;
    // §4.3: the client re-forwards a refreshed proxy; our GASS traffic
    // switches to it immediately.
    forwarded_credential_ = message.body.get("credential");
    gass_->set_credential_text(forwarded_credential_);
    persist_description();
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  if (message.type == "jm.update_gass") {
    // Crash point: new GASS address received but the spec file not yet
    // rewritten — a restart must come back with the old URL and the
    // GridManager's retry must converge on the new one.
    if (host_.crash_point("jobmanager.update_gass_recv")) return;
    // "If the address of the GASS server should change ... the GridManager
    // requests the JobManager to update the file with the new address."
    spec_.gass_url = message.body.get("gass_url");
    persist_description();
    sim::rpc_reply(network_, message, address(), std::move(reply));
    // The new server has none of our streamed output: resend it
    // ("permitting a client to request resending of this data after a
    // crash of client or server", §3.2).
    restream_output();
    return;
  }
  sim::rpc_unknown(host_, network_, message, address(), "jobmanager");
}

void JobManager::commit() {
  committed_ = true;
  persist_state();
  sim::Tracer& tracer = host_.tracer();
  if (tracer.enabled()) {
    // Milestone: the interval ending here is the commit leg of the
    // two-phase submit RTT.
    tracer.event("jm.commit", job_from_tag(spec_.tag), host_.name(),
                 host_.epoch(), contact_);
  }
  stage_in();
}

void JobManager::stage_in() {
  sim::Tracer& tracer = host_.tracer();
  if (tracer.enabled()) {
    stage_in_span_ = tracer.begin_span(
        "jm.stage_in", job_from_tag(spec_.tag), host_.name(), host_.epoch(),
        tracer.job_root(client_callback_.host, job_from_tag(spec_.tag)),
        spec_.executable);
  }
  set_state(GramJobState::kStageIn, "staging executable");
  // Fetch the executable from the client's GASS server, with retries: the
  // submit machine may be briefly down or partitioned.
  auto attempt = std::make_shared<int>(kStageRetries);
  auto try_fetch = std::make_shared<std::function<void()>>();
  *try_fetch = [this, attempt,
                weak = std::weak_ptr<std::function<void()>>(try_fetch)] {
    if (!process_alive_) return;
    const auto self = weak.lock();
    if (!self) return;
    // The staging cache's waiter list outlives a replaced JobManager, so
    // the callback must probe the lifetime before touching `this` (the
    // direct-get path's callback dies with our own FileClient instead).
    auto on_file = [this, attempt, self, alive = life_.observer()](
                       bool arrived) {
      if (!alive() || !process_alive_) return;
      if (arrived) {
        submit_to_scheduler();
        return;
      }
      if (--*attempt <= 0) {
        stage_out_and_finish(GramJobState::kFailed,
                             "staging failed: executable unreachable");
        return;
      }
      host_.post(kStageRetryDelay, life_.wrap([self] { (*self)(); }));
    };
    const sim::Address server = sim::Address::parse(spec_.gass_url);
    if (staging_cache_ != nullptr && spec_.exe_checksum != 0) {
      // Content-addressed executable: the per-site cache coalesces
      // concurrent stages and serves repeats with zero transfers.
      staging_cache_->fetch(
          server, spec_.executable, spec_.exe_checksum,
          [on_file = std::move(on_file)](
              std::shared_ptr<const gass::FileInfo> file) {
            on_file(file != nullptr);
          },
          kStageTimeout);
    } else {
      gass_->get(
          server, spec_.executable,
          [on_file = std::move(on_file)](std::optional<gass::FileInfo> file) {
            on_file(file.has_value());
          },
          kStageTimeout);
    }
  };
  (*try_fetch)();
}

void JobManager::submit_to_scheduler() {
  batch::JobRequest request;
  request.owner = "gram";
  request.runtime_seconds = spec_.runtime_seconds;
  request.walltime_limit_seconds = spec_.walltime_limit;
  request.cpus = spec_.cpus;
  request.tag = contact_;
  local_job_id_ = scheduler_.submit(std::move(request));
  host_.tracer().end_span(stage_in_span_, "ok");
  set_state(GramJobState::kPending, "queued locally");
  watch_scheduler();
}

void JobManager::watch_scheduler() {
  // Terminal transitions arrive via a one-shot handler. PENDING->ACTIVE is
  // observed on the grid a polling JobManager would use, the watch time
  // plus k * kLocalPollInterval (k >= 1, by repeated addition), so
  // time-to-ACTIVE, callbacks and wire traffic are those of a poll. But no
  // poll runs: the scheduler's one-shot start handler tells us the start
  // time, and one event is armed at the first grid instant at or after it
  // (at once for a job already running). A reattached JobManager that
  // found its job running is ACTIVE already and arms nothing.
  //
  // Tie rule: a start exactly on a grid instant is observed at that
  // instant, because the event is armed from inside the starting event and
  // runs after it. A poll saw the same only if the starting event ran
  // before that instant's poll; otherwise it saw the start one step later.
  job_handler_token_ = scheduler_.add_job_handler(
      local_job_id_,
      [this, epoch = host_.epoch()](const batch::JobRecord& record) {
        if (!process_alive_ || host_.epoch() != epoch) return;
        job_handler_token_ = 0;  // consumed
        on_local_terminal(record);
      });
  if (state_ != GramJobState::kPending) return;
  sim::Tracer& tracer = host_.tracer();
  start_handler_token_ = scheduler_.add_start_handler(
      local_job_id_,
      [this, epoch = host_.epoch(), watched = host_.now(),
       cause = tracer.enabled() ? tracer.context() : 0](
          const batch::JobRecord& record) {
        if (!process_alive_ || host_.epoch() != epoch) return;
        start_handler_token_ = 0;  // consumed
        sim::Time at = watched + kLocalPollInterval;
        while (at < record.start_time) at += kLocalPollInterval;
        // Armed under the watch-time causal context, like the poll it
        // replaces, so the ACTIVE record keeps its cause edge. The cursor
        // is shared by all islands: touch it only while tracing, which
        // serializes execution.
        std::optional<sim::Tracer::ScopedContext> context;
        if (host_.tracer().enabled()) context.emplace(host_.tracer(), cause);
        host_.post_at(at, life_.wrap([this] { observe_start(); }));
      });
}

void JobManager::observe_start() {
  if (!process_alive_ || state_ != GramJobState::kPending) return;
  const auto status = scheduler_.status(local_job_id_);
  if (!status || status->state != batch::JobState::kRunning) return;
  set_state(GramJobState::kActive, "running");
  start_streaming();
}

void JobManager::on_local_terminal(const batch::JobRecord& record) {
  switch (record.state) {
    case batch::JobState::kCompleted:
      stage_out_and_finish(GramJobState::kDone, "completed");
      break;
    case batch::JobState::kWalltimeExceeded:
      stage_out_and_finish(GramJobState::kFailed, "walltime exceeded");
      break;
    case batch::JobState::kCancelled:
      stage_out_and_finish(GramJobState::kFailed, "cancelled");
      break;
    default:
      break;
  }
}

void JobManager::stage_out_and_finish(GramJobState final_state,
                                      const std::string& why) {
  // A stage-in abandoned by failure or cancel still closes its span.
  host_.tracer().end_span(stage_in_span_,
                          final_state == GramJobState::kDone ? "ok" : "error",
                          why);
  if (final_state == GramJobState::kDone && !spec_.output.empty()) {
    // Ship the output file back to the client's GASS server, retrying
    // through client downtime, THEN report DONE — so DONE implies output
    // is in place.
    sim::Tracer& tracer = host_.tracer();
    if (tracer.enabled()) {
      stage_out_span_ = tracer.begin_span(
          "jm.stage_out", job_from_tag(spec_.tag), host_.name(),
          host_.epoch(),
          tracer.job_root(client_callback_.host, job_from_tag(spec_.tag)),
          spec_.output);
    }
    auto attempt = std::make_shared<int>(kStageRetries);
    auto try_put = std::make_shared<std::function<void()>>();
    *try_put = [this, attempt, final_state, why,
                weak = std::weak_ptr<std::function<void()>>(try_put)] {
      if (!process_alive_) return;
      const auto self = weak.lock();
      if (!self) return;
      gass_->put(
          sim::Address::parse(spec_.gass_url), spec_.output,
          "output-of:" + contact_, spec_.output_size,
          [this, attempt, self, final_state, why](bool ok) {
            if (!process_alive_) return;
            if (ok) {
              host_.tracer().end_span(stage_out_span_, "ok");
              set_state(final_state, why);
              return;
            }
            if (--*attempt <= 0) {
              host_.tracer().end_span(stage_out_span_, "error");
              set_state(GramJobState::kFailed, "output staging failed");
              return;
            }
            host_.post(kStageRetryDelay,
                       life_.wrap([self] { (*self)(); }));
          },
          kStageTimeout);
    };
    (*try_put)();
    return;
  }
  set_state(final_state, why);
}

void JobManager::start_streaming() {
  if (spec_.stream_interval <= 0 || streaming_) return;
  streaming_ = true;
  host_.post(spec_.stream_interval,
             life_.wrap([this] { stream_output_tick(); }));
}

void JobManager::stream_output_tick() {
  if (!process_alive_ || state_ != GramJobState::kActive ||
      spec_.stream_interval <= 0) {
    streaming_ = false;
    return;
  }
  // One chunk of the job's stdout-so-far; sequence-numbered appends keep
  // the stream exactly-once across retries and resends.
  const std::uint64_t seq = ++streamed_chunks_;
  gass_->append(sim::Address::parse(spec_.gass_url),
                spec_.output + ".stream",
                util::format("chunk %llu of %s\n",
                             static_cast<unsigned long long>(seq),
                             contact_.c_str()),
                0, [](bool) {}, kStageTimeout,
                /*writer=*/contact_, seq);
  persist_state();
  host_.post(spec_.stream_interval,
             life_.wrap([this] { stream_output_tick(); }));
}

void JobManager::restream_output() {
  if (spec_.stream_interval <= 0) return;
  // Resend everything streamed so far to the (new) GASS server. The chunk
  // content is regenerated from the sequence numbers — in the real system
  // the JobManager keeps the spooled stdout on local disk.
  const std::uint64_t upto = streamed_chunks_;
  for (std::uint64_t seq = 1; seq <= upto; ++seq) {
    gass_->append(sim::Address::parse(spec_.gass_url),
                  spec_.output + ".stream",
                  util::format("chunk %llu of %s\n",
                               static_cast<unsigned long long>(seq),
                               contact_.c_str()),
                  0, [](bool) {}, kStageTimeout,
                  /*writer=*/contact_, seq);
  }
  if (state_ == GramJobState::kActive) start_streaming();
}

void JobManager::set_state(GramJobState state, const std::string& why) {
  state_ = state;
  persist_state();
  if (state_counters_ != nullptr) {
    state_counters_->at(state)->inc();
  } else {
    host_.metrics()
        .counter("jobmanager.state_changes",
                 {{"site", host_.name()}, {"state", to_string(state)}})
        .inc();
  }
  sim::Tracer& tracer = host_.tracer();
  if (tracer.enabled()) {
    tracer.event("jm.state", job_from_tag(spec_.tag), host_.name(),
                 host_.epoch(),
                 std::string(to_string(state)) +
                     (why.empty() ? "" : ": " + why));
  }
  send_callback(why);
}

void JobManager::send_callback(const std::string& why) {
  if (client_callback_.host.empty()) return;
  sim::Payload payload;
  payload.set("contact", contact_);
  payload.set("state", to_string(state_));
  payload.set("why", why);
  rpc_->notify(client_callback_, "gram.callback", std::move(payload));
}

}  // namespace condorg::gram
