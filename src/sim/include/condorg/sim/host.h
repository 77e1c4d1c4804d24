// A crashable machine in the simulated grid.
//
// Hosts model the paper's failure domains: the submit machine (Schedd +
// GridManager), the site front-end (Gatekeeper + JobManagers), and the
// execute nodes. A crash bumps the host's epoch; every callback or message
// handler installed before the crash is fenced out, so only state written to
// StableStorage survives — exactly the discipline the paper's recovery
// design depends on.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "condorg/sim/simulation.h"
#include "condorg/sim/stable_storage.h"
#include "condorg/sim/types.h"

namespace condorg::sim {

class Host {
 public:
  /// `queue` is this host's kernel event queue (sim::World passes
  /// Simulation::register_queue(); the default 0 is the control queue).
  Host(Simulation& sim, std::string name, std::uint32_t queue = 0);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  bool alive() const { return alive_; }
  Epoch epoch() const { return epoch_; }
  std::uint32_t queue() const { return queue_; }
  Simulation& sim() { return sim_; }
  Time now() const { return sim_.now(); }
  /// Observability forwarders (daemons hold a Host&, not the Simulation).
  util::MetricsRegistry& metrics() { return sim_.metrics(); }
  Tracer& tracer() { return sim_.tracer(); }

  /// Disk that survives crashes.
  StableStorage& disk() { return disk_; }
  const StableStorage& disk() const { return disk_; }

  /// Schedule a callback that runs only if this host is still alive *and in
  /// the same incarnation* when the delay elapses. This is the primitive all
  /// daemons use for timers, retries, and job completion.
  EventId post(Time delay, std::function<void()> fn);

  /// Like post, but the callback survives restarts of the host (it still
  /// requires the host to be alive at fire time). Used for externally-driven
  /// hardware-ish events.
  EventId post_any_epoch(Time delay, std::function<void()> fn);

  /// post() for periodic herd timers (status polls, lease renewals,
  /// credential refreshes) whose exact phase carries no protocol meaning.
  /// The fire time is rounded up to a coarse grid (25 ms) so herd members
  /// share calendar buckets — fewer distinct timestamps means denser
  /// buckets and fewer, fatter synchronization windows, which is where the
  /// profiler showed the parallel kernel's overhead to live. The rounding
  /// is a pure function of the due time, so it is identical for every
  /// CONDORG_PARALLEL worker count.
  EventId post_coalesced(Time delay, std::function<void()> fn);

  /// Crash the host: epoch bumps, pending post() callbacks are fenced,
  /// message handlers are dropped, crash listeners run. No-op if down.
  void crash();

  /// Restart after a crash: host becomes alive and boot functions run (in
  /// registration order) so daemons can reconstruct themselves from disk().
  /// No-op if already alive.
  void restart();

  /// Convenience: crash now, restart after `downtime`.
  void crash_for(Time downtime);

  /// Named crash-injection point for the schedule explorer. Daemons call
  /// this at every protocol step where a real process could die ("persisted
  /// the record, have not replied yet"). With no ScheduleController attached
  /// (all production/test runs) this is a no-op returning false. When the
  /// controller asks for a crash, the crash is *scheduled* as a separate
  /// event at the current timestamp — crashing inline would destroy daemon
  /// objects whose member functions are still on the call stack — and this
  /// returns true so the caller can return before sending its reply.
  bool crash_point(const char* point);

  /// Register a boot function, run on every restart (NOT on registration).
  /// Boot functions model init scripts: they re-create daemons from stable
  /// state. Returns an id usable with remove_boot().
  int add_boot(std::function<void()> fn);
  void remove_boot(int id);

  /// Crash listeners run at crash time (after the epoch bump), letting
  /// in-memory daemon objects mark themselves dead.
  int add_crash_listener(std::function<void()> fn);
  void remove_crash_listener(int id);

  // --- message handler registry (used by Network) ---
  using Handler = std::function<void(const class Message&)>;

  /// Install a handler for a named service on this host. Handlers are
  /// volatile: a crash removes them; boot functions must re-register.
  /// Throws std::logic_error if the name is already taken by a live
  /// handler — per-host service names are an address space, not a stack.
  void register_service(const std::string& service, Handler handler);
  void unregister_service(const std::string& service);
  const Handler* find_service(const std::string& service) const;

  std::size_t crash_count() const { return crash_count_; }

 private:
  /// Invoke a timer callback, accumulating its wall-clock cost in the
  /// kernel profiler when armed (one branch when not).
  void run_profiled(const std::function<void()>& fn);

  /// Epoch-fenced schedule at an absolute time onto this host's queue.
  EventId post_at(Time when, std::function<void()> fn);

  Simulation& sim_;
  std::string name_;
  std::uint32_t queue_ = 0;
  bool alive_ = true;
  Epoch epoch_ = 1;
  StableStorage disk_;
  std::map<std::string, Handler> services_;
  std::vector<std::pair<int, std::function<void()>>> boots_;
  std::vector<std::pair<int, std::function<void()>>> crash_listeners_;
  int next_listener_id_ = 1;
  std::size_t crash_count_ = 0;
};

}  // namespace condorg::sim
