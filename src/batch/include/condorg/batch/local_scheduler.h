// Local (intra-site) batch scheduling.
//
// GRAM's JobManager "submits the jobs to the execution site's local
// scheduling system (PBS, Condor, LSF, LoadLeveler, NQE, etc.)" — this
// module models those systems. A LocalScheduler lives on the *cluster*, not
// on the site's front-end host: when the front-end (Gatekeeper/JobManager
// machine) crashes, queued and running jobs carry on, which is exactly the
// situation GRAM's reattach logic (§3.2, §4.2) exists to handle.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "condorg/sim/simulation.h"
#include "condorg/sim/types.h"

namespace condorg::batch {

struct JobRequest {
  std::string owner;                     // local account
  double runtime_seconds = 60.0;         // true compute demand
  double walltime_limit_seconds =
      std::numeric_limits<double>::infinity();  // site policy cap
  int cpus = 1;
  std::string tag;  // opaque caller annotation (e.g. GRAM job contact)
};

enum class JobState {
  kQueued,
  kRunning,
  kCompleted,
  kWalltimeExceeded,  // killed by the site's runtime policy
  kCancelled,
};

const char* to_string(JobState state);
bool is_terminal(JobState state);

struct JobRecord {
  std::uint64_t id = 0;
  JobRequest request;
  JobState state = JobState::kQueued;
  sim::Time submit_time = 0;
  sim::Time start_time = -1;
  sim::Time end_time = -1;

  double queue_wait() const {
    return start_time >= 0 ? start_time - submit_time : -1;
  }
};

/// Base class: queue bookkeeping, CPU accounting, completion events.
/// Subclasses override pick_next() to define the dispatch policy.
class LocalScheduler {
 public:
  using CompletionHandler = std::function<void(const JobRecord&)>;

  LocalScheduler(sim::Simulation& sim, std::string name, int total_cpus);
  virtual ~LocalScheduler() = default;

  LocalScheduler(const LocalScheduler&) = delete;
  LocalScheduler& operator=(const LocalScheduler&) = delete;

  /// Enqueue a job; returns its site-local id. Dispatch happens immediately
  /// if CPUs are free (subject to policy).
  std::uint64_t submit(JobRequest request);

  /// Current job record; nullopt for unknown ids. Terminal records are
  /// retained (the site's accounting log).
  std::optional<JobRecord> status(std::uint64_t id) const;

  /// Cancel a queued or running job. Returns false for unknown/terminal.
  bool cancel(std::uint64_t id);

  /// Invoked on every terminal transition (complete, walltime kill,
  /// cancel). Multiple handlers may be registered (JobManager + metrics).
  void add_completion_handler(CompletionHandler handler);

  /// Invoked once when job `id` reaches a terminal state, then discarded.
  /// Returns a token for remove_job_handler. If the job is already terminal
  /// the handler fires immediately, nothing stays registered and 0 is
  /// returned.
  std::uint64_t add_job_handler(std::uint64_t id, CompletionHandler handler);

  /// Invoked once when queued job `id` starts running (the record carries
  /// its start_time), then discarded; dropped unfired if the job ends
  /// without starting. Shares add_job_handler's tokens and
  /// remove_job_handler. If the job is already running the handler fires
  /// immediately; for a job that is neither queued nor running nothing is
  /// registered. Either way 0 is returned.
  std::uint64_t add_start_handler(std::uint64_t id, CompletionHandler handler);

  /// Drop a registered handler, in O(log n); unknown or spent tokens
  /// (including 0) are ignored.
  void remove_job_handler(std::uint64_t token);

  const std::string& name() const { return name_; }
  int total_cpus() const { return total_cpus_; }
  int busy_cpus() const { return busy_cpus_; }
  int free_cpus() const { return total_cpus_ - busy_cpus_; }
  std::size_t queue_length() const { return queue_.size(); }

  /// Completed-job history (terminal records, in completion order).
  const std::vector<JobRecord>& history() const { return history_; }

  /// Aggregate CPU-seconds delivered to completed jobs.
  double cpu_seconds_delivered() const { return cpu_seconds_; }

 protected:
  /// Policy hook: index into queue_ of the next job to start given `free`
  /// CPUs, or npos if none can start. The default is strict FIFO with no
  /// backfill (subclasses refine).
  virtual std::size_t pick_next(int free) const;

  const std::vector<std::uint64_t>& queue() const { return queue_; }
  const JobRecord& record(std::uint64_t id) const { return jobs_.at(id); }
  /// The smallest CPU request in the queue (the queue must not be empty):
  /// when it exceeds the free CPUs, no queued job can start.
  int min_queued_cpus() const { return queued_cpus_.begin()->first; }

  /// Owner usage accounting for fair-share policies.
  double owner_usage(const std::string& owner) const;

 private:
  struct JobHandler {
    std::uint64_t token;
    CompletionHandler handler;
  };
  /// Job id -> its one-shot handlers, in registration order. A job with no
  /// handler left has no entry.
  using HandlerLists = std::map<std::uint64_t, std::vector<JobHandler>>;

  void try_dispatch();
  /// Remove queue_[index], keeping queued_cpus_ in step.
  void dequeue(std::size_t index);
  void start_job(std::uint64_t id);
  void finish_job(std::uint64_t id, JobState state);
  std::uint64_t register_handler(HandlerLists& lists, std::uint64_t id,
                                 CompletionHandler handler);
  /// Detach (and forget the tokens of) job `id`'s handlers in `lists`.
  std::vector<JobHandler> take_handlers(HandlerLists& lists,
                                        std::uint64_t id);

  sim::Simulation& sim_;
  std::string name_;
  int total_cpus_;
  int busy_cpus_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::map<std::uint64_t, sim::EventId> completion_events_;
  std::vector<std::uint64_t> queue_;  // ids of queued jobs, FIFO order
  std::map<int, std::size_t> queued_cpus_;  // CPU request -> queued jobs
  std::vector<CompletionHandler> handlers_;
  HandlerLists start_handlers_;
  HandlerLists end_handlers_;
  /// Token -> the list holding it (start_handlers_ or end_handlers_) and
  /// the job it is keyed under.
  std::map<std::uint64_t, std::pair<HandlerLists*, std::uint64_t>>
      handler_index_;
  std::uint64_t next_handler_token_ = 1;
  std::vector<JobRecord> history_;
  std::map<std::string, double> usage_;  // owner -> cpu-seconds
  double cpu_seconds_ = 0;
};

}  // namespace condorg::batch
