// Discrete-event simulation kernel.
//
// A Simulation owns timestamped callbacks and a monotonically advancing
// clock. Everything in the reproduction — protocol timeouts, job runtimes,
// crashes, probes — is an event in this kernel, which is what makes
// week-long grid campaigns runnable in milliseconds and every run exactly
// reproducible from its seed.
//
// Every Host owns its own calendar queue (queue 0 is the control queue for
// harness code outside any host), and events are totally ordered by the key
// (when, origin queue, origin counter). Islands — groups of queues connected
// only by latency-bearing links (see island.h) — advance under conservative
// lookahead windows, on up to CONDORG_PARALLEL worker threads (sim::World
// wires the budget; unset or 0 means one). The dispatch stream, and hence
// the FNV trace digest, is the merge of the per-island streams in key order,
// a deterministic function of the scenario alone: the digest is
// byte-identical for every worker count, and one worker runs the very same
// windowed algorithm on the calling thread. When a global observer is armed
// (Tracer, InvariantAuditor, ScheduleController) the kernel serializes
// execution in exact key order, so observer output stays byte-identical
// and the Explorer model-checks the same kernel campaigns run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "condorg/sim/island.h"
#include "condorg/sim/profiler.h"
#include "condorg/sim/tracer.h"
#include "condorg/sim/types.h"
#include "condorg/util/metrics.h"
#include "condorg/util/rng.h"

namespace condorg::sim {

class InvariantAuditor;
class ScheduleController;
struct IslandEngine;

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Simulated time as seen from the calling context. Inside an event this
  /// is the dispatching queue's clock (islands at different points of the
  /// current window legitimately disagree); outside any event it is the
  /// committed global clock — the time of the last committed event, or the
  /// run_until() horizon.
  Time now() const {
    const TlsContext& tls = tls_context();
    return queues_[tls.sim == this ? tls.queue : 0].local_now;
  }

  /// Schedule a callback at an absolute time (>= now). Events with equal
  /// timestamps dispatch in FIFO (scheduling) order per scheduling context —
  /// this tie-break is part of the kernel's contract and is pinned by tests:
  /// protocol layers rely on "schedule A then B at time t => A runs before
  /// B". The target queue is the scheduling context's queue (daemons
  /// schedule onto their own island; harness code onto the control queue).
  EventId schedule_at(Time when, std::function<void()> fn);

  /// Schedule a callback after a delay (>= 0).
  EventId schedule_in(Time delay, std::function<void()> fn) {
    // Pass through untouched: schedule_at rejects null callbacks, and
    // conditionally moving here (`fn ? std::move(fn) : nullptr`) reads fn's
    // state in one operand while the other moves it out — the moved-from
    // pattern the determinism lint exists to keep out of the kernel.
    return schedule_at(now() + delay, std::move(fn));
  }

  /// Cancel a pending event. Returns true if the event was still pending.
  /// Only the event's own queue context (or the control context at a
  /// barrier) may cancel — cancelling another island's event mid-window
  /// would race with its dispatch.
  bool cancel(EventId id);
  /// Whether cancel(id) may be called from the calling context.
  bool may_cancel(EventId id) const;

  /// Run until the event queue is empty or stop() is called.
  void run();

  /// Run events with timestamp <= until; afterwards now() == until unless
  /// stop() was called. Returns true if events remain pending.
  bool run_until(Time until);

  /// Request the active run()/run_until() loop to return. A stop from
  /// inside an event halts the calling island immediately; every other
  /// island still finishes the current window (the committed window content
  /// is what keeps the digest independent of worker count).
  void stop();

  /// Number of events dispatched so far (for micro-benchmarks / debugging).
  std::uint64_t dispatched() const { return dispatched_; }
  std::size_t pending() const;

  /// Master RNG; prefer make_rng() for per-component streams.
  util::Rng& rng() { return rng_; }

  /// Deterministic per-component stream derived from the master seed.
  util::Rng make_rng(std::string_view label) const { return rng_.split(label); }

  /// Rolling FNV-1a hash over the committed dispatch stream — a digest of
  /// the run's event order: every (time, origin queue, origin counter) key
  /// in global key order (the deterministic merge of the per-island
  /// streams). Two runs of the same scenario from the same seed, under any
  /// CONDORG_PARALLEL worker count, must produce identical digests; a
  /// mismatch is the determinism self-check's proof that hidden state (wall
  /// clock, unordered iteration, ambient RNG, or an island executing past
  /// its lookahead) leaked into scheduling.
  std::uint64_t trace_digest() const { return trace_digest_; }

  /// Attach an invariant auditor: dispatch runs its checks between events,
  /// every `period` dispatches (the world is quiescent there — no callback
  /// is mid-flight). Pass nullptr to detach. The auditor must outlive the
  /// attachment. Execution is serialized while an auditor is attached (the
  /// auditor reads cross-island state).
  void attach_auditor(InvariantAuditor* auditor, std::uint64_t period = 1024);
  InvariantAuditor* auditor() const { return auditor_; }

  /// Attach a schedule controller (see schedule_controller.h): whenever more
  /// than one live event sits at the earliest pending time — across every
  /// queue — it picks which one dispatches; Host::crash_point and Network
  /// delivery quantization consult it too. Execution is serialized while a
  /// controller is attached. Pass nullptr to detach; a controller that
  /// always picks 0 commits exactly the uncontrolled key order. The
  /// controller must outlive the attachment.
  void set_controller(ScheduleController* controller) {
    controller_ = controller;
  }
  ScheduleController* controller() const { return controller_; }

  /// Metric registry shared by every daemon in this world. Per-Simulation
  /// (not global) so scenarios run back-to-back stay isolated.
  util::MetricsRegistry& metrics() { return metrics_; }
  const util::MetricsRegistry& metrics() const { return metrics_; }

  /// Distributed-trace recorder (disabled until Tracer::set_enabled).
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  /// Kernel profiler (disabled until Profiler::set_enabled; sim::World arms
  /// it from CONDORG_PROFILE). Hooked at Network delivery and Host::post.
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

  // --- island-parallel execution ---

  /// Budget of window worker threads (0 is taken as 1). Changes only how
  /// many threads execute a window, never what is committed. Normally set
  /// by sim::World from CONDORG_PARALLEL.
  void configure_islands(unsigned threads) {
    island_threads_ = threads == 0 ? 1 : threads;
  }
  /// Always true: the island kernel is the only kernel (the campaign
  /// benchmark harness still asks).
  bool island_mode() const { return true; }
  unsigned island_threads() const { return island_threads_; }

  /// Register a new per-host event queue (World::add_host). Returns the
  /// queue id.
  std::uint32_t register_queue();

  /// Install the hook that (re)builds the island plan. Invoked at run entry
  /// and at window barriers after the topology changed (see
  /// notify_topology_changed). Installed by sim::World.
  void set_island_plan_hook(std::function<IslandPlan()> hook);
  const IslandPlan& island_plan() const { return plan_; }

  /// Tell the kernel hosts/links changed; the plan hook is re-run at the
  /// next synchronization point. Safe from the control context only.
  void notify_topology_changed() { ++topology_version_; }

  /// Queue of the current scheduling context: the dispatching event's queue
  /// inside an event, 0 (control) outside.
  std::uint32_t context_queue() const {
    const TlsContext& tls = tls_context();
    return tls.sim == this ? tls.queue : 0;
  }

  /// Schedule onto an explicit queue (Host::post routes timers to the
  /// host's own queue whatever context arms them). Origin — and therefore
  /// the FIFO tie-break — is still the scheduling context.
  EventId schedule_on_queue(std::uint32_t queue, Time when,
                            std::function<void()> fn);

  /// Cross-island delivery (Network): enqueue `fn` to run on `queue` at
  /// `when`, ordered by the sender's (origin, counter) key. In parallel
  /// windows this goes through the target island's inbox and is integrated
  /// at the next barrier; no EventId is returned because deliveries are
  /// never cancelled (loss and partitions are decided before scheduling).
  void schedule_cross(std::uint32_t queue, Time when, std::function<void()> fn);

  /// Per-island execution statistics (events dispatched, inbox messages
  /// integrated, window epochs, blocked/busy wall time). Deterministic
  /// columns only unless `include_wall`; see Profiler::to_json.
  struct IslandStat {
    std::uint64_t events = 0;
    std::uint64_t inbox_messages = 0;
    std::uint64_t epochs = 0;
    std::uint64_t blocked_ns = 0;  // wall clock, nondeterministic
    std::uint64_t busy_ns = 0;     // wall clock, nondeterministic
  };
  std::vector<IslandStat> island_stats() const;

  /// Calendar introspection (tests / debugging): live pending events and
  /// buried cancelled entries of one queue. The tombstone count is exact —
  /// it rises on cancel and falls as the lazy deletion drains the entry —
  /// so a cancel storm on one island must leave every other queue's count
  /// untouched (pinned by the island regression tests).
  std::size_t queue_pending(std::uint32_t queue) const {
    return queues_[queue].live;
  }
  std::uint64_t queue_tombstones(std::uint32_t queue) const {
    return queues_[queue].tombstones;
  }

 private:
  friend struct IslandEngine;

  // Event storage is a per-queue slab of reusable records addressed by a
  // slot index; an EventId packs (queue:14 | slot+1:22 | gen:28), so 0 stays
  // kInvalidEvent and cancel() can route to the owning queue. Cancellation
  // just bumps the slot's generation — O(1), no queue surgery — and the
  // pending entry left behind is lazily discarded when its bucket drains
  // (its generation no longer matches); the queue's tombstone counter
  // tracks how many such entries are still buried.
  //
  // The pending set is a calendar of per-timestamp buckets with a min-heap
  // over the *distinct* timestamps only. Simulated time is heavily tied
  // (timeout grids, periodic cycles, same-tick protocol rounds), so the heap
  // stays tiny and a dispatch is usually "advance the front bucket's
  // cursor" rather than an O(log n_events) sift over megabytes of nodes.
  // Dispatch order within a queue is exactly (when, origin, ctr): the
  // unexecuted tail of each bucket is kept ascending in the packed order
  // word, and the heap orders distinct times.
  struct PendingEvent {
    Time when;            // verbatim as scheduled (digest input)
    std::uint64_t order;  // order_key(origin, ctr): tie-break + digest input
    std::uint32_t slot;   // slab index
    std::uint32_t gen;    // generation at scheduling time
  };
  struct Bucket {
    std::uint64_t key = 0;             // normalized bit pattern of `when`
    std::size_t next = 0;              // drain cursor into items
    std::vector<PendingEvent> items;   // unexecuted tail order-ascending
  };
  struct BucketRef {
    Time when;
    std::uint32_t bucket;
    // Strict: at most one live bucket per timestamp, so ties are impossible.
    bool after(const BucketRef& other) const { return when > other.when; }
  };
  struct EventRecord {
    std::function<void()> fn;  // non-null iff live
    std::uint32_t gen = 1;
    // Tracer causal cursor snapshotted at scheduling time (0 when tracing
    // is off). dispatch() re-installs it around fn() so records emitted by
    // the callback point at the record that caused the event — across
    // Host::post timers, Network deliveries, and crash/boot callbacks
    // alike, since they all funnel through schedule_at. Lives in the slab
    // (not PendingEvent) to keep the calendar buckets compact.
    RecordId cause = 0;
  };

  /// The tie-break (origin queue, origin counter) packed into one word that
  /// orders exactly like the pair: origin < 2^14 (the queue limit), and a
  /// counter below 2^50 per origin.
  static constexpr int kOrderBits = 50;
  static constexpr std::uint64_t kCtrMask =
      (std::uint64_t{1} << kOrderBits) - 1;
  static std::uint64_t order_key(std::uint32_t origin, std::uint64_t ctr) {
    return std::uint64_t{origin} << kOrderBits | ctr;
  }

  /// One host's calendar (queue 0: the control queue). The lazy-deletion
  /// (tombstone) accounting is deliberately per-queue: a cancel storm on one
  /// island must not bleed state into another island's calendar.
  struct QueueState {
    // The live event at the calendar front, as the executors peek it —
    // cached because the window scan peeks every queue at every barrier.
    // schedule_keyed keeps it current; take_event and cancel clear
    // `front_known`, and the next peek recomputes it.
    bool front_known = false;
    bool front_empty = false;          // known, and nothing is pending
    Time front_when = 0.0;
    std::uint64_t front_order = 0;
    std::vector<BucketRef> heap;        // min-heap over distinct timestamps
    std::vector<Bucket> buckets;        // bucket slab; index = BucketRef::bucket
    std::vector<std::uint32_t> free_buckets;  // recycled buckets
    std::unordered_map<std::uint64_t, std::uint32_t> bucket_of;  // key → index
    std::vector<EventRecord> slots;     // slab; index = PendingEvent::slot
    std::vector<std::uint32_t> free_slots;    // recycled slab slots (LIFO)
    std::size_t live = 0;               // live (non-cancelled) pending events
    std::uint64_t tombstones = 0;       // cancelled entries awaiting drain
    std::uint64_t ctr = 0;              // origin counter for this context
    std::uint64_t events = 0;           // dispatched from this queue
    Time local_now = 0.0;               // this queue's committed clock
    bool halted = false;                // stop() called from this queue
  };

  struct TlsContext {
    const Simulation* sim = nullptr;
    std::uint32_t queue = 0;
  };
  static TlsContext& tls_context();

  /// RAII: mark `queue` as the dispatching context on this thread.
  class ScopedQueue {
   public:
    ScopedQueue(const Simulation* sim, std::uint32_t queue)
        : previous_(tls_context()) {
      tls_context() = TlsContext{sim, queue};
    }
    ~ScopedQueue() { tls_context() = previous_; }
    ScopedQueue(const ScopedQueue&) = delete;
    ScopedQueue& operator=(const ScopedQueue&) = delete;

   private:
    TlsContext previous_;
  };

  /// Schedule under an explicit order key (cross-island integration).
  EventId schedule_keyed(std::uint32_t queue, Time when, std::uint64_t order,
                         std::function<void()> fn, RecordId cause);

  void dispatch(std::uint32_t queue, const PendingEvent& ev);
  /// Remove an event from the front bucket: the entry at position `index`
  /// (a controller's pick), or the one at the drain cursor for kFront.
  /// Requires drop_stale_front() to have run.
  PendingEvent take_event(QueueState& q, std::size_t index);
  /// Advance front buckets past cancelled entries; release drained buckets.
  /// Afterwards the heap front (if any) has a live event at its cursor.
  void drop_stale_front(QueueState& q);
  static void heap_push(QueueState& q, BucketRef node);
  static void heap_pop_front(QueueState& q);

  /// Fold one committed dispatch key into the digest.
  void fold_digest(Time when, std::uint64_t order);

  /// The one run loop: run_strict under a global observer, run_windows
  /// otherwise (see IslandEngine).
  void run_islands(Time until, bool bounded);
  /// Lazily (re)build the island plan via the hook.
  void refresh_plan();

  // Atomic because stop() may be called from an island worker thread while
  // the coordinator (and other islands) are mid-window.
  std::atomic<bool> stopped_{false};
  unsigned island_threads_ = 1;
  std::uint64_t dispatched_ = 0;
  std::vector<QueueState> queues_;  // [0] = control queue
  util::Rng rng_;
  std::uint64_t trace_digest_ = 14695981039346656037ull;  // FNV-1a basis
  ScheduleController* controller_ = nullptr;
  InvariantAuditor* auditor_ = nullptr;
  std::uint64_t audit_period_ = 1024;
  IslandPlan plan_;
  std::function<IslandPlan()> plan_hook_;
  std::uint64_t topology_version_ = 1;
  std::uint64_t planned_version_ = 0;
  std::unique_ptr<IslandEngine> engine_;
  util::MetricsRegistry metrics_;
  Tracer tracer_{*this};
  Profiler profiler_;
};

}  // namespace condorg::sim
