#include "condorg/batch/local_scheduler.h"

#include <algorithm>

namespace condorg::batch {

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCompleted: return "COMPLETED";
    case JobState::kWalltimeExceeded: return "WALLTIME_EXCEEDED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}

LocalScheduler::LocalScheduler(sim::Simulation& sim, std::string name,
                               int total_cpus)
    : sim_(sim), name_(std::move(name)), total_cpus_(total_cpus) {}

std::uint64_t LocalScheduler::submit(JobRequest request) {
  const std::uint64_t id = next_id_++;
  JobRecord record;
  record.id = id;
  record.request = std::move(request);
  record.submit_time = sim_.now();
  ++queued_cpus_[record.request.cpus];
  jobs_.emplace(id, std::move(record));
  queue_.push_back(id);
  try_dispatch();
  return id;
}

std::optional<JobRecord> LocalScheduler::status(std::uint64_t id) const {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

bool LocalScheduler::cancel(std::uint64_t id) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || is_terminal(it->second.state)) return false;
  if (it->second.state == JobState::kQueued) {
    dequeue(static_cast<std::size_t>(
        std::find(queue_.begin(), queue_.end(), id) - queue_.begin()));
  }
  finish_job(id, JobState::kCancelled);
  return true;
}

void LocalScheduler::add_completion_handler(CompletionHandler handler) {
  handlers_.push_back(std::move(handler));
}

std::uint64_t LocalScheduler::add_job_handler(std::uint64_t id,
                                              CompletionHandler handler) {
  const auto it = jobs_.find(id);
  if (it != jobs_.end() && is_terminal(it->second.state)) {
    handler(it->second);  // already finished: fire immediately
    return 0;
  }
  return register_handler(end_handlers_, id, std::move(handler));
}

std::uint64_t LocalScheduler::add_start_handler(std::uint64_t id,
                                                CompletionHandler handler) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return 0;
  if (it->second.state == JobState::kRunning) {
    handler(it->second);  // already started: fire immediately
    return 0;
  }
  if (it->second.state != JobState::kQueued) return 0;  // ended unstarted
  return register_handler(start_handlers_, id, std::move(handler));
}

void LocalScheduler::remove_job_handler(std::uint64_t token) {
  const auto at = handler_index_.find(token);
  if (at == handler_index_.end()) return;
  const auto [lists, id] = at->second;
  handler_index_.erase(at);
  const auto it = lists->find(id);
  std::erase_if(it->second,
                [token](const JobHandler& h) { return h.token == token; });
  if (it->second.empty()) lists->erase(it);
}

std::uint64_t LocalScheduler::register_handler(HandlerLists& lists,
                                               std::uint64_t id,
                                               CompletionHandler handler) {
  const std::uint64_t token = next_handler_token_++;
  lists[id].push_back(JobHandler{token, std::move(handler)});
  handler_index_.emplace(token, std::make_pair(&lists, id));
  return token;
}

std::vector<LocalScheduler::JobHandler> LocalScheduler::take_handlers(
    HandlerLists& lists, std::uint64_t id) {
  const auto it = lists.find(id);
  if (it == lists.end()) return {};
  std::vector<JobHandler> taken = std::move(it->second);
  lists.erase(it);
  for (const JobHandler& h : taken) handler_index_.erase(h.token);
  return taken;
}

double LocalScheduler::owner_usage(const std::string& owner) const {
  const auto it = usage_.find(owner);
  return it == usage_.end() ? 0.0 : it->second;
}

std::size_t LocalScheduler::pick_next(int free) const {
  if (queue_.empty()) return static_cast<std::size_t>(-1);
  const JobRecord& head = jobs_.at(queue_.front());
  return head.request.cpus <= free ? 0 : static_cast<std::size_t>(-1);
}

void LocalScheduler::try_dispatch() {
  while (true) {
    const std::size_t index = pick_next(free_cpus());
    if (index >= queue_.size()) return;
    const std::uint64_t id = queue_[index];
    dequeue(index);
    start_job(id);
  }
}

void LocalScheduler::dequeue(std::size_t index) {
  const auto it = queued_cpus_.find(jobs_.at(queue_[index]).request.cpus);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
  if (--it->second == 0) queued_cpus_.erase(it);
}

void LocalScheduler::start_job(std::uint64_t id) {
  JobRecord& record = jobs_.at(id);
  record.state = JobState::kRunning;
  record.start_time = sim_.now();
  busy_cpus_ += record.request.cpus;
  const double duration = std::min(record.request.runtime_seconds,
                                   record.request.walltime_limit_seconds);
  const bool killed =
      record.request.walltime_limit_seconds < record.request.runtime_seconds;
  completion_events_[id] = sim_.schedule_in(duration, [this, id, killed] {
    finish_job(id,
               killed ? JobState::kWalltimeExceeded : JobState::kCompleted);
  });
  const auto started = take_handlers(start_handlers_, id);
  if (started.empty()) return;
  // Copy: a handler may cancel the job it is told about.
  const JobRecord snapshot = record;
  for (const auto& entry : started) entry.handler(snapshot);
}

void LocalScheduler::finish_job(std::uint64_t id, JobState state) {
  JobRecord& record = jobs_.at(id);
  const bool was_running = record.state == JobState::kRunning;
  if (const auto it = completion_events_.find(id);
      it != completion_events_.end()) {
    sim_.cancel(it->second);
    completion_events_.erase(it);
  }
  record.state = state;
  record.end_time = sim_.now();
  if (was_running) {
    busy_cpus_ -= record.request.cpus;
    const double used = (record.end_time - record.start_time) *
                        static_cast<double>(record.request.cpus);
    usage_[record.request.owner] += used;
    if (state == JobState::kCompleted) cpu_seconds_ += used;
  }
  history_.push_back(record);
  // Copy: a handler may submit (reentrancy into try_dispatch is fine since
  // we dispatch after notifying).
  const auto handlers = handlers_;
  const JobRecord snapshot = record;
  for (const auto& handler : handlers) handler(snapshot);
  take_handlers(start_handlers_, id);  // ended without starting: dropped
  for (const auto& entry : take_handlers(end_handlers_, id)) {
    entry.handler(snapshot);
  }
  try_dispatch();
}

}  // namespace condorg::batch
