// Condor Startd: the daemon that turns a machine into a pool member.
//
// This is the "mobile sandbox" of the GlideIn mechanism (§5): started on a
// grid-allocated node, it advertises itself to the user's personal
// Collector, accepts claims, runs jobs under system-call redirection,
// checkpoints them periodically, evicts them gracefully (with a final
// checkpoint) when the machine's owner returns or the site allocation
// expires, and shuts itself down after a configurable idle period "thus
// guarding against runaway daemons."
//
// Liveness is asked per execute host, not per claim: a runner's
// ShadowMonitor sends one startd.status_all per interval to the host's
// responder, which answers for every Startd named in it with its state, its
// claim's job and that job's progress, or MISSING. A Startd that stands
// alone is its own responder; a glide-in's Startds are answered for by
// their GlideInStarter, which the slot ad names as its Responder.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "condorg/classad/classad.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/rng.h"

namespace condorg::condor {

struct StartdOptions {
  sim::Address collector;
  double advertise_period = 300.0;
  /// Periodic checkpoint interval while running a job; 0 disables. Eviction
  /// always takes a final checkpoint (graceful preemption); a host *crash*
  /// loses work back to the last periodic checkpoint.
  double checkpoint_interval = 600.0;
  /// Remote-syscall traffic: while running, the sandboxed job sends an I/O
  /// record to its shadow with this period; 0 disables.
  double io_interval = 0.0;
  std::uint64_t io_bytes_per_op = 64 * 1024;

  // --- GlideIn lifecycle ---
  /// Absolute sim time at which the site's batch allocation ends; the
  /// daemon evicts any job (with checkpoint) and exits.
  double allocation_expires_at = 1e18;
  /// Shut down after being continuously unclaimed this long; <=0 disables.
  double idle_timeout = 0.0;

  // --- opportunistic desktop behaviour ---
  /// When true the machine's owner comes and goes; an arriving owner evicts
  /// the running job and the slot advertises State="Owner".
  bool owner_activity = false;
  double mean_owner_away_seconds = 3600.0;
  double mean_owner_busy_seconds = 900.0;

  /// Static machine properties merged into every ad (Arch, Memory, ...).
  classad::ClassAd base_ad;
};

class Startd {
 public:
  /// Runs on an execute node: a glide-in's cluster host or a pool slot.
  CONDORG_HOST_LOCAL("site");

  enum class State { kOwner, kUnclaimed, kClaimed, kRunning, kExited };

  /// `on_exit` fires when the daemon shuts down (allocation expiry, idle
  /// timeout; not on a host crash) — for a GlideIn this is when its batch
  /// job slot frees up.
  Startd(sim::Host& host, sim::Network& network, std::string slot_name,
         StartdOptions options, std::function<void()> on_exit = nullptr);
  ~Startd();

  Startd(const Startd&) = delete;
  Startd& operator=(const Startd&) = delete;

  const std::string& slot_name() const { return slot_name_; }
  sim::Address address() const { return {host_.name(), service_}; }
  State state() const { return state_; }
  bool exited() const { return state_ == State::kExited; }

  /// Ask the daemon to shut down gracefully (evicting any job first).
  void shutdown(const std::string& reason);

  // --- statistics ---
  std::uint64_t jobs_completed() const { return jobs_completed_; }
  std::uint64_t evictions() const { return evictions_; }

  static const char* to_string(State state);

  /// Reply to a startd.status_all: one line per Startd service named in the
  /// request, from `find` (nullptr: MISSING). `from` is the responder.
  static void answer_status_all(
      sim::Network& network, const sim::Message& request,
      const sim::Address& from,
      const std::function<const Startd*(const std::string& service)>& find);

 private:
  struct Claim {
    std::string claim_id;
    std::string job_id;
    sim::Address shadow;
  };

  void install();
  void advertise();
  void send_ad();
  void on_message(const sim::Message& message);
  void activate(const sim::Message& message);
  void complete_job();
  void evict(const std::string& reason, bool then_exit);
  void finish_exit(const std::string& reason);
  void owner_cycle();
  void touch_activity() { last_activity_ = host_.now(); }
  void idle_check();
  double work_done_now() const;
  void notify_shadow(const std::string& type, sim::Payload payload);

  sim::Host& host_;
  sim::Network& network_;
  sim::Lifetime life_;
  std::string slot_name_;
  std::string service_;
  StartdOptions options_;
  std::function<void()> on_exit_;
  sim::RpcClient rpc_;
  util::Rng rng_;

  State state_ = State::kUnclaimed;
  // The serialized ad (empty until first built) and the state it was built
  // for: re-advertising an unchanged slot re-sends the cached text.
  std::string ad_text_;
  State ad_state_ = State::kUnclaimed;
  // det-local(claim_): touched only from this node's own message and timer
  // events; setup code or the node itself builds and destroys the Startd.
  std::optional<Claim> claim_;
  // Running-job bookkeeping.
  double activated_at_ = 0;
  double base_work_done_ = 0;     // checkpointed work at activation
  double work_remaining_ = 0;
  sim::EventId completion_event_ = sim::kInvalidEvent;
  sim::EventId checkpoint_event_ = sim::kInvalidEvent;
  sim::EventId io_event_ = sim::kInvalidEvent;
  double last_activity_ = 0;
  int crash_listener_ = 0;

  std::uint64_t jobs_completed_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace condorg::condor
