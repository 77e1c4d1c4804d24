#include "condorg/sim/simulation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "condorg/sim/invariant_auditor.h"
#include "condorg/sim/schedule_controller.h"
#include "condorg/util/logging.h"

namespace condorg::sim {
namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
constexpr Time kInfTime = std::numeric_limits<Time>::infinity();

// Referenced only from CONDORG_LOG_TRACE sites; the discarded-if-constexpr
// branch still names it, so it needs no preprocessor guard of its own.
[[maybe_unused]] const util::Logger& kernel_logger() {
  static const util::Logger logger("sim");
  return logger;
}

// kFnvPrime^k mod 2^64 for k = 0..24 (every zero-byte run fold_digest can
// defer across one key's three words).
constexpr std::array<std::uint64_t, 25> kFnvPrimePow = [] {
  std::array<std::uint64_t, 25> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * kFnvPrime;
  }
  return pow;
}();

std::uint64_t time_bits(Time when) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(when));
  std::memcpy(&bits, &when, sizeof(bits));
  return bits;
}

// Calendar key for a timestamp: its bit pattern, with -0.0 folded into +0.0
// so numerically-equal times land in the same bucket (otherwise two heap
// entries could tie on `when` and the FIFO order across them would be
// unspecified). The PendingEvent still carries `when` verbatim — the digest
// sees exactly the bits that were scheduled.
std::uint64_t bucket_key(Time when) {
  return time_bits(when == 0.0 ? 0.0 : when);
}

// The kernel's total order over events: (when, origin queue, origin
// counter), with (origin, counter) packed into one word (see
// Simulation::order_key). Computable by the scheduling context alone — no
// global counter — which is what lets islands execute concurrently and
// still agree on one global dispatch order. Keys of distinct events are
// distinct because an origin never reuses a counter value.
struct DigestKey {
  Time when = 0.0;
  std::uint64_t order = 0;

  bool operator<(const DigestKey& other) const {
    if (when != other.when) return when < other.when;
    return order < other.order;
  }
};

// EventId packing: queue:14 | slot+1:22 | gen:28.
constexpr std::uint32_t kMaxQueues = 1u << 14;
constexpr std::uint32_t kMaxSlots = (1u << 22) - 2;
constexpr std::uint32_t kGenMask = (1u << 28) - 1;

// Capacity (in entries) a drained calendar bucket or cross-island inbox may
// keep for reuse. Recycled buffers above it are released: buckets and
// inboxes rotate through every timestamp and barrier, so keeping each
// one's high-water capacity lets a few herd-timer peaks pin memory in
// every recycled bucket of every queue.
constexpr std::size_t kRecycledCapacity = 32;

// take_event position meaning "the front bucket's drain cursor".
constexpr std::size_t kFront = std::numeric_limits<std::size_t>::max();

std::uint64_t clock_ns() {
  // Island busy/blocked profiling measures real executor cost; it feeds the
  // wall-only profile columns, never scheduling.
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // lint-allow(wall-clock): executor profiling, not simulated time
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Window-mode dispatch sink: while an island executes a parallel window its
// dispatch keys are appended here instead of being folded into the (shared)
// digest; the coordinator merges the per-island logs in key order at the
// barrier. Thread-local so dispatch() needs no branch on who is running it.
// lint-allow(mutable-global): per-thread dispatch sink, single-owner
thread_local std::vector<DigestKey>* t_window_log = nullptr;
}  // namespace

// ---------------------------------------------------------------------------
// IslandEngine: the conservative parallel executor.
//
// One instance per Simulation, created lazily at the first run.
// It owns the worker pool, the per-queue cross-island inboxes, and the
// window/barrier loop. Queue state is only ever touched by (a) the
// coordinator between barriers or (b) the single worker executing that
// queue's island inside a window — the barrier's mutex/condvar pair provides
// the happens-before edges, so the calendars themselves need no locks.
//
// Synchronization model (conservative, LBTS-style realized as global
// windows): let T be the minimum pending key time over all islands and L the
// plan lookahead (minimum cross-island link latency). Every cross-island
// message sent by an event at time t arrives at t + latency >= T + L, so all
// events with key < (T + L, 0) are safe to execute without hearing from
// any other island — that window is executed in parallel, then a barrier
// exchanges the buffered cross messages (the role null messages play in
// distributed conservative schemes). Control-queue events cap the window
// because they may touch any island's state.
// ---------------------------------------------------------------------------
struct IslandEngine {
  explicit IslandEngine(Simulation& s) : sim(s) {}
  ~IslandEngine() { shutdown(); }

  IslandEngine(const IslandEngine&) = delete;
  IslandEngine& operator=(const IslandEngine&) = delete;

  Simulation& sim;

  // --- cross-island inboxes -----------------------------------------------
  struct CrossEntry {
    Time when = 0.0;
    std::uint64_t order = 0;
    std::function<void()> fn;
  };
  struct Inbox {
    std::mutex mu;
    std::vector<CrossEntry> entries;
  };
  // unique_ptr so growing the vector (hosts added at a barrier) never moves
  // a mutex out from under a sender.
  std::vector<std::unique_ptr<Inbox>> inboxes;
  // True only while the windowed executor is between its initial and final
  // barriers: senders inside windows must go through the inbox; everything
  // else (strict mode, setup code, control context between runs) schedules
  // directly into the target calendar.
  std::atomic<bool> use_inbox{false};
  // Recycled integration batch — the arena for cross-island handoff:
  // capacity (up to kRecycledCapacity) survives across windows, so
  // steady-state integration allocates nothing beyond what the message
  // closures themselves pin.
  std::vector<CrossEntry> batch_arena;

  // --- plan-derived layout ------------------------------------------------
  std::vector<std::vector<std::uint32_t>> members;  // island -> queue ids
  std::vector<std::uint32_t> island_of;             // queue -> island id
  std::vector<std::uint32_t> work_islands;          // non-control, non-empty
  Time lookahead = kInfTime;

  // Merge cursors into the window logs (coordinator only).
  struct LogHead {
    DigestKey key;
    std::uint32_t island;
    std::size_t pos;  // position of `key` in that island's log
  };
  std::vector<LogHead> heads;  // min-heap on key

  std::vector<Simulation::IslandStat> stats;
  std::vector<std::vector<DigestKey>> logs;       // per-island window logs
  std::vector<std::uint64_t> window_busy;         // per-island, this window

  // Scratch for the controller's choice point (run_strict only).
  struct Candidate {
    DigestKey key;
    std::uint32_t queue;
    std::size_t index;  // position in the queue's front bucket
  };
  std::vector<Candidate> candidates;

  // --- worker pool / barrier ----------------------------------------------
  std::vector<std::thread> workers;
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t job_seq = 0;
  std::size_t completed = 0;  // islands executed this window
  std::size_t work_size = 0;  // |work_islands| of the current window
  bool quit = false;
  // Claim word: window generation (high 32, = job_seq) | next work index
  // (low 32). Claims CAS the low half and are only valid while the high
  // half still matches the generation the claimant adopted under `mu` — a
  // straggler whose claim loop outlives its window can therefore never
  // claim (or even index work_islands for) a window it did not enter
  // through the mutex handshake, which is what makes the coordinator's
  // between-window calendar/plan mutations safe to run unlocked.
  std::atomic<std::uint64_t> claim_state{0};

  DigestKey bound{};     // current window bound (exclusive)
  DigestKey last_key{};  // last committed key of the current run
  bool profiling = false;

  // -------------------------------------------------------------------------

  void sync_plan() {
    const IslandPlan& plan = sim.plan_;
    const std::size_t queues = sim.queues_.size();
    if (plan.island_of_queue.size() != queues || plan.island_count == 0 ||
        plan.island_of_queue[0] != 0) {
      throw std::logic_error("island plan does not match the queue layout");
    }
    lookahead = plan.lookahead;
    std::uint32_t count = plan.island_count;
    // No positive lookahead => no safe window exists between islands:
    // collapse every host queue into one island (serial but correct).
    const bool collapse = !(lookahead > 0.0) && queues > 1;
    island_of.assign(queues, 0);
    if (collapse) {
      count = 2;
      for (std::size_t q = 1; q < queues; ++q) {
        island_of[q] = 1;
      }
    } else {
      for (std::size_t q = 1; q < queues; ++q) {
        const std::uint32_t island = plan.island_of_queue[q];
        if (island == 0 || island >= count) {
          throw std::logic_error("island plan: bad island id for host queue");
        }
        island_of[q] = island;
      }
    }
    members.assign(count, {});
    for (std::size_t q = 0; q < queues; ++q) {
      members[island_of[q]].push_back(static_cast<std::uint32_t>(q));
    }
    work_islands.clear();
    for (std::uint32_t i = 1; i < count; ++i) {
      if (!members[i].empty()) work_islands.push_back(i);
    }
    // A single work island can never receive a mid-window message from a
    // peer, so it may run unbounded by lookahead.
    if (work_islands.size() <= 1) lookahead = kInfTime;
    if (stats.size() < count) stats.resize(count);
    if (logs.size() < count) logs.resize(count);
    if (window_busy.size() < count) window_busy.resize(count, 0);
    while (inboxes.size() < queues) {
      inboxes.push_back(std::make_unique<Inbox>());
    }
  }

  // Peek the next key of one queue; false if the queue is empty.
  bool peek_key(Simulation::QueueState& q, DigestKey* out) {
    if (!q.front_known) {
      sim.drop_stale_front(q);
      q.front_known = true;
      q.front_empty = q.heap.empty();
      if (!q.front_empty) {
        const Simulation::Bucket& b = q.buckets[q.heap.front().bucket];
        const Simulation::PendingEvent& e = b.items[b.next];
        q.front_when = e.when;
        q.front_order = e.order;
      }
    }
    if (q.front_empty) return false;
    *out = DigestKey{q.front_when, q.front_order};
    return true;
  }

  // Whether a running island still holds an event below the window bound.
  bool pending_below_bound() {
    for (const std::uint32_t island : work_islands) {
      if (halted(island)) continue;
      for (const std::uint32_t qid : members[island]) {
        DigestKey k;
        if (peek_key(sim.queues_[qid], &k) && k < bound) return true;
      }
    }
    return false;
  }

  bool halted(std::uint32_t island) const {
    for (const std::uint32_t qid : members[island]) {
      if (sim.queues_[qid].halted) return true;
    }
    return false;
  }

  // Coordinator-only: drain every inbox into its target calendar. Serial on
  // purpose — cross traffic is the rare path by design (that is what makes
  // islands worth having), and serial integration keeps determinism
  // trivial. Runs only at barriers: every sender finished before the
  // barrier handshake on `mu`, so neither the inboxes nor any calendar can
  // be touched concurrently and the inbox locks are not needed here.
  void integrate_all() {
    for (std::size_t qid = 1; qid < inboxes.size(); ++qid) {
      Inbox& ib = *inboxes[qid];
      if (ib.entries.empty()) continue;
      // Swap the batch out; the arena the previous integration left behind
      // (empty, capacity bounded below) becomes this inbox's buffer.
      std::swap(batch_arena, ib.entries);
      // Arrival order from racing senders is nondeterministic; the sorted
      // bucket insert in schedule_keyed makes the calendar order depend on
      // the key alone, but sort anyway so even transient structures (bucket
      // creation order, slot assignment) are run-to-run stable.
      std::sort(batch_arena.begin(), batch_arena.end(),
                [](const CrossEntry& a, const CrossEntry& b) {
                  return DigestKey{a.when, a.order} < DigestKey{b.when, b.order};
                });
      for (CrossEntry& e : batch_arena) {
        sim.schedule_keyed(static_cast<std::uint32_t>(qid), e.when, e.order,
                           std::move(e.fn), 0);
      }
      stats[island_of[qid]].inbox_messages += batch_arena.size();
      batch_arena.clear();
      // The arena becomes the next drained inbox's buffer: bound what it
      // hands on, or every inbox ends up pinning the largest batch.
      if (batch_arena.capacity() > kRecycledCapacity) {
        std::vector<CrossEntry>().swap(batch_arena);
      }
    }
  }

  // Stats parity for the direct (strict/setup) cross-schedule path, so the
  // per-island inbox totals are identical whichever executor ran.
  void count_cross(std::uint32_t queue) {
    if (queue < island_of.size()) ++stats[island_of[queue]].inbox_messages;
  }

  // --- the execute barrier -------------------------------------------------

  void start_workers(std::size_t desired) {
    while (workers.size() < desired) {
      workers.emplace_back([this] { worker_main(); });
    }
  }

  void worker_main() {
    std::uint64_t seen = 0;
    std::size_t size = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        cv_work.wait(lk, [&] { return quit || job_seq != seen; });
        if (quit) return;
        // Always adopt the *current* window — whichever notify woke us —
        // so the mutex acquire here orders every calendar/plan write the
        // coordinator made before publishing this generation.
        seen = job_seq;
        size = work_size;
      }
      claim_and_execute(seen, size);
    }
  }

  void claim_and_execute(std::uint64_t gen, std::size_t size) {
    const std::uint64_t want = gen << 32;
    for (;;) {
      std::uint64_t state = claim_state.load(std::memory_order_acquire);
      std::size_t k;
      for (;;) {
        if ((state & ~std::uint64_t{0xffffffff}) != want) return;  // stale
        k = static_cast<std::size_t>(state & 0xffffffff);
        if (k >= size) return;  // window fully claimed
        if (claim_state.compare_exchange_weak(state, state + 1,
                                              std::memory_order_acq_rel)) {
          break;
        }
      }
      const std::uint32_t island = work_islands[k];
      const std::uint64_t t0 = profiling ? clock_ns() : 0;
      execute_island(island);
      if (profiling) {
        const std::uint64_t spent = clock_ns() - t0;
        stats[island].busy_ns += spent;
        window_busy[island] = spent;
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        if (++completed == size) cv_done.notify_all();
      }
    }
  }

  // Execute every event of `island` whose key is strictly below `bound`.
  // Exclusively owns the island's member queues for the duration.
  void execute_island(std::uint32_t island) {
    t_window_log = &logs[island];
    bool any = false;
    while (!halted(island)) {
      std::uint32_t best_q = 0;
      DigestKey best{};
      bool found = false;
      for (const std::uint32_t qid : members[island]) {
        DigestKey k;
        if (!peek_key(sim.queues_[qid], &k)) continue;
        if (!found || k < best) {
          found = true;
          best = k;
          best_q = qid;
        }
      }
      if (!found || !(best < bound)) break;
      const Simulation::PendingEvent ev =
          sim.take_event(sim.queues_[best_q], kFront);
      sim.dispatch(best_q, ev);
      any = true;
    }
    t_window_log = nullptr;
    if (any) ++stats[island].epochs;
  }

  // Fan the current window out to the workers (the coordinator
  // participates) and wait for all islands to finish. With one thread — or
  // one island — everything runs inline on the caller, no pool involved.
  void run_execute_phase() {
    if (work_islands.empty()) return;
    const std::uint64_t t0 = profiling ? clock_ns() : 0;
    const bool parallel = sim.island_threads_ > 1 && work_islands.size() > 1;
    if (!parallel) {
      // Inline execution stays off the claim word entirely: this path has
      // no end-of-window barrier, so nothing here may invite a worker in.
      for (const std::uint32_t island : work_islands) {
        const std::uint64_t s0 = profiling ? clock_ns() : 0;
        execute_island(island);
        if (profiling) {
          const std::uint64_t spent = clock_ns() - s0;
          stats[island].busy_ns += spent;
          window_busy[island] = spent;
        }
      }
    } else {
      start_workers(std::min<std::size_t>(sim.island_threads_ - 1,
                                          work_islands.size() - 1));
      {
        std::lock_guard<std::mutex> lk(mu);
        completed = 0;
        ++job_seq;
        work_size = work_islands.size();
        claim_state.store(job_seq << 32, std::memory_order_release);
      }
      cv_work.notify_all();
      claim_and_execute(job_seq, work_islands.size());
      std::unique_lock<std::mutex> lk(mu);
      cv_done.wait(lk, [&] { return completed == work_islands.size(); });
    }
    if (profiling) {
      const std::uint64_t wall = clock_ns() - t0;
      for (const std::uint32_t island : work_islands) {
        // Whatever part of the window the island did not spend executing,
        // it spent blocked on the barrier (or waiting for a worker slot) —
        // that is the lookahead-starvation signal the report surfaces.
        stats[island].blocked_ns += wall - std::min(wall, window_busy[island]);
        window_busy[island] = 0;
      }
    }
  }

  // Fold one committed dispatch key into the digest, enforcing that the
  // committed stream never moves backward in time. A time regression means
  // an island executed past its lookahead (a smaller-time event surfaced
  // after a larger one committed) — the run would not be reproducible — so
  // it is a hard error, not a diagnostic.
  //
  // Equal-time key inversions, by contrast, are legitimate: a delivery
  // handler that posts follow-up work at `now` creates a child with the
  // same `when` but its own (origin, ctr) — which may sort below the
  // parent's key even though it causally (and deterministically) executes
  // after it. Both executors commit the greedy min-front order over the
  // per-queue pop sequences, which is identical for every worker count, so
  // same-time runs need no intra-key ordering check. Cross-island causality
  // always advances time (positive link latency), so a genuine lookahead
  // violation still manifests as the time regression checked here.
  void commit_key(const DigestKey& key) {
    if (key.when < last_key.when) {
      throw std::logic_error(
          "island kernel: committed dispatch time moved backward "
          "(an island executed past its lookahead)");
    }
    last_key = key;
    sim.fold_digest(key.when, key.order);
  }

  // Merge the per-island window logs into the digest: repeatedly commit the
  // smallest head key (keys are globally unique), advancing only that log —
  // the greedy min-front merge the strict executor commits, so an island's
  // own order (including equal-time inversions) is kept. A heap over the
  // heads: herd-timer windows put events on hundreds of islands at once.
  void merge_logs() {
    const auto later = [](const LogHead& a, const LogHead& b) {
      return b.key < a.key;
    };
    heads.clear();
    for (const std::uint32_t island : work_islands) {
      const std::vector<DigestKey>& log = logs[island];
      sim.dispatched_ += log.size();
      if (!log.empty()) heads.push_back(LogHead{log.front(), island, 0});
    }
    std::make_heap(heads.begin(), heads.end(), later);
    while (!heads.empty()) {
      std::pop_heap(heads.begin(), heads.end(), later);
      LogHead& head = heads.back();
      commit_key(head.key);
      std::vector<DigestKey>& log = logs[head.island];
      if (++head.pos < log.size()) {
        head.key = log[head.pos];
        std::push_heap(heads.begin(), heads.end(), later);
      } else {
        log.clear();
        heads.pop_back();
      }
    }
  }

  // --- the two executors ----------------------------------------------------

  // Parallel windowed executor (no global observer armed). The calling
  // thread is the coordinator: it integrates inboxes, dispatches control
  // events at barriers, computes window bounds, and participates in
  // execution.
  void run_windows(Time until, bool bounded) {
    Simulation& s = sim;
    profiling = s.profiler().enabled();
    const Time until_edge =
        bounded ? std::nextafter(until, kInfTime) : kInfTime;
    use_inbox.store(true, std::memory_order_release);
    for (;;) {
      integrate_all();
      if (s.planned_version_ != s.topology_version_) {
        s.refresh_plan();
        sync_plan();
      }
      DigestKey ctl, isl;
      const bool have_ctl = peek_key(s.queues_[0], &ctl);
      bool have_isl = false;
      for (const std::uint32_t island : work_islands) {
        for (const std::uint32_t qid : members[island]) {
          DigestKey k;
          if (!peek_key(s.queues_[qid], &k)) continue;
          if (!have_isl || k < isl) {
            have_isl = true;
            isl = k;
          }
        }
      }
      if (!have_ctl && !have_isl) break;
      const DigestKey& first =
          !have_isl || (have_ctl && ctl < isl) ? ctl : isl;
      if (bounded && first.when > until) break;
      if (have_ctl && (!have_isl || ctl < isl)) {
        // Control turn: the world is at a barrier and the control event may
        // touch anything — it is its own one-event window.
        const Simulation::PendingEvent ev = s.take_event(s.queues_[0], kFront);
        commit_key(ctl);
        ++s.dispatched_;
        s.dispatch(0, ev);
        if (s.stopped_.load(std::memory_order_relaxed)) break;
        continue;
      }
      // Island window [isl.when, bound): safe because every cross-island
      // message sent inside it arrives no earlier than isl.when + lookahead,
      // and pending control events cap the bound.
      DigestKey b{isl.when + lookahead, 0};
      if (have_ctl && ctl < b) b = ctl;
      if (DigestKey{until_edge, 0} < b) b = DigestKey{until_edge, 0};
      bound = b;
      ++stats[0].epochs;  // the control row doubles as the window count
      run_execute_phase();
      // A host that drives a daemon object living on another host (the
      // GlideIn manager does) posts straight into that island's calendar;
      // when the island already ran this window, the event sits below the
      // bound. Run the window again so it still commits inside it —
      // partition-clean workloads never need a second pass.
      while (pending_below_bound()) run_execute_phase();
      merge_logs();
      if (s.stopped_.load(std::memory_order_relaxed)) break;
    }
    integrate_all();  // drain stragglers so pending() stays accurate
    use_inbox.store(false, std::memory_order_release);
  }

  // Strict serialized executor: exact global key order on the calling
  // thread. Used whenever a global observer (Tracer, InvariantAuditor,
  // ScheduleController) is armed — the observer then sees the one true
  // stream, byte-identical for every worker count by construction. Window
  // bookkeeping is kept only so stop() semantics match the parallel
  // executor (a stopped island skips ahead; everyone ends at the window
  // edge).
  void run_strict(Time until, bool bounded) {
    Simulation& s = sim;
    profiling = false;
    const Time until_edge =
        bounded ? std::nextafter(until, kInfTime) : kInfTime;
    use_inbox.store(false, std::memory_order_release);
    DigestKey wbound{-kInfTime, 0};
    for (;;) {
      if (s.planned_version_ != s.topology_version_) {
        s.refresh_plan();
        sync_plan();
      }
      DigestKey ctl, best;
      const bool have_ctl = peek_key(s.queues_[0], &ctl);
      bool found = have_ctl;
      std::uint32_t best_q = 0;
      if (have_ctl) best = ctl;
      for (const std::uint32_t island : work_islands) {
        if (halted(island)) continue;  // stopped: idle until the window edge
        for (const std::uint32_t qid : members[island]) {
          DigestKey k;
          if (!peek_key(s.queues_[qid], &k)) continue;
          if (!found || k < best) {
            found = true;
            best = k;
            best_q = qid;
          }
        }
      }
      if (!found) break;
      if (bounded && best.when > until) break;
      std::size_t index = kFront;
      if (s.controller_ != nullptr) choose(&best, &best_q, &index);
      if (!(best < wbound)) {
        // Window edge: a stop anywhere ends the run here, exactly like the
        // parallel executor ending after the current window.
        if (s.stopped_.load(std::memory_order_relaxed)) break;
        if (best_q == 0) {
          const Simulation::PendingEvent ev =
              s.take_event(s.queues_[0], index);
          commit_key(best);
          ++s.dispatched_;
          s.dispatch(0, ev);
          wbound = DigestKey{-kInfTime, 0};  // barrier: re-open windows
          continue;
        }
        wbound = DigestKey{best.when + lookahead, 0};
        if (have_ctl && ctl < wbound) wbound = ctl;
        if (DigestKey{until_edge, 0} < wbound) {
          wbound = DigestKey{until_edge, 0};
        }
      }
      const Simulation::PendingEvent ev = s.take_event(s.queues_[best_q], index);
      commit_key(best);
      ++s.dispatched_;
      s.dispatch(best_q, ev);
    }
  }

  // The controller's choice point: every live event at the earliest pending
  // time, across the control queue and every running island, offered in key
  // order — the candidate set one global calendar would hold at that
  // instant, so a pick of 0 is exactly the uncontrolled (minimum-key) event.
  // Requires peek_key to have run on each of those queues. Overwrites the
  // key, queue and bucket position of the event to dispatch.
  void choose(DigestKey* key, std::uint32_t* queue, std::size_t* index) {
    candidates.clear();
    const auto collect = [&](std::uint32_t qid) {
      const Simulation::QueueState& q = sim.queues_[qid];
      if (q.heap.empty() || q.heap.front().when != key->when) return;
      const Simulation::Bucket& b = q.buckets[q.heap.front().bucket];
      for (std::size_t i = b.next; i < b.items.size(); ++i) {
        const Simulation::PendingEvent& e = b.items[i];
        if (q.slots[e.slot].gen == e.gen) {
          candidates.push_back(Candidate{DigestKey{e.when, e.order}, qid, i});
        }
      }
    };
    collect(0);
    for (const std::uint32_t island : work_islands) {
      if (halted(island)) continue;
      for (const std::uint32_t qid : members[island]) collect(qid);
    }
    if (candidates.size() < 2) return;
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.key < b.key;
              });
    const Candidate& pick =
        candidates[sim.controller_->pick_event(key->when, candidates.size()) %
                   candidates.size()];
    *key = pick.key;
    *queue = pick.queue;
    *index = pick.index;
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lk(mu);
      quit = true;
    }
    cv_work.notify_all();
    for (std::thread& t : workers) t.join();
    workers.clear();
  }
};

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {
  queues_.resize(1);  // queue 0: the control queue
}

Simulation::~Simulation() = default;

Simulation::TlsContext& Simulation::tls_context() {
  // Each worker only ever reads the context it installed via ScopedQueue.
  // lint-allow(mutable-global): per-thread scheduling-context cursor
  thread_local TlsContext tls;
  return tls;
}

void Simulation::attach_auditor(InvariantAuditor* auditor,
                                std::uint64_t period) {
  auditor_ = auditor;
  audit_period_ = period > 0 ? period : 1;
}

std::uint32_t Simulation::register_queue() {
  if (queues_.size() >= kMaxQueues) {
    throw std::length_error("register_queue: too many island queues");
  }
  const std::uint32_t queue = static_cast<std::uint32_t>(queues_.size());
  queues_.emplace_back();
  // A host created mid-run joins at the control clock (host creation is a
  // control-context action, so this is the committed global time).
  queues_.back().local_now = queues_[0].local_now;
  notify_topology_changed();
  return queue;
}

void Simulation::set_island_plan_hook(std::function<IslandPlan()> hook) {
  plan_hook_ = std::move(hook);
  notify_topology_changed();
}

void Simulation::refresh_plan() {
  if (planned_version_ == topology_version_) return;
  if (plan_hook_) {
    plan_ = plan_hook_();
  } else {
    // No topology knowledge: every host queue nominally its own island but
    // with zero lookahead, which the engine collapses to one serial island.
    // Correct for bare-Simulation use; sim::World always installs a hook.
    plan_.island_of_queue.assign(queues_.size(), 0);
    for (std::size_t q = 1; q < queues_.size(); ++q) {
      plan_.island_of_queue[q] = static_cast<std::uint32_t>(q);
    }
    plan_.island_count = static_cast<std::uint32_t>(queues_.size());
    plan_.lookahead = 0.0;
  }
  planned_version_ = topology_version_;
}

std::size_t Simulation::pending() const {
  std::size_t total = 0;
  for (const QueueState& q : queues_) total += q.live;
  return total;
}

std::vector<Simulation::IslandStat> Simulation::island_stats() const {
  if (engine_ == nullptr) return {};
  std::vector<IslandStat> out = engine_->stats;
  for (std::size_t qid = 0;
       qid < queues_.size() && qid < engine_->island_of.size(); ++qid) {
    out[engine_->island_of[qid]].events += queues_[qid].events;
  }
  return out;
}

// 4-ary min-heap on `when`, hand-sifted with a hole instead of
// std::push_heap/pop_heap swaps: half the depth of a binary heap and one
// move per level. It only orders *distinct* timestamps (one bucket each), so
// ties are impossible and any correct heap yields the same dispatch stream.
void Simulation::heap_push(QueueState& q, BucketRef node) {
  std::size_t i = q.heap.size();
  q.heap.push_back(node);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!q.heap[parent].after(node)) break;
    q.heap[i] = q.heap[parent];
    i = parent;
  }
  q.heap[i] = node;
}

void Simulation::heap_pop_front(QueueState& q) {
  const BucketRef last = q.heap.back();
  q.heap.pop_back();
  const std::size_t n = q.heap.size();
  if (n > 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = (i << 2) + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (q.heap[best].after(q.heap[c])) best = c;
      }
      if (!last.after(q.heap[best])) break;
      q.heap[i] = q.heap[best];
      i = best;
    }
    q.heap[i] = last;
  }
}

void Simulation::drop_stale_front(QueueState& q) {
  while (!q.heap.empty()) {
    Bucket& b = q.buckets[q.heap.front().bucket];
    const std::size_t size = b.items.size();
    std::size_t next = b.next;
    while (next < size &&
           q.slots[b.items[next].slot].gen != b.items[next].gen) {
      ++next;
    }
    // Every entry skipped here is a drained cancellation tombstone (the
    // only way an entry at the cursor goes stale): settle the account.
    q.tombstones -= next - b.next;
    b.next = next;
    if (next < size) return;  // front bucket has a live event at its cursor
    // Fully drained: retire the bucket. Small capacities are kept for reuse;
    // a herd-sized one is released rather than parked in the free list.
    q.bucket_of.erase(b.key);
    b.items.clear();
    if (b.items.capacity() > kRecycledCapacity) {
      std::vector<PendingEvent>().swap(b.items);
    }
    b.next = 0;
    q.free_buckets.push_back(q.heap.front().bucket);
    heap_pop_front(q);
  }
}

EventId Simulation::schedule_at(Time when, std::function<void()> fn) {
  return schedule_on_queue(context_queue(), when, std::move(fn));
}

EventId Simulation::schedule_on_queue(std::uint32_t queue, Time when,
                                      std::function<void()> fn) {
  if (!fn) throw std::invalid_argument("schedule_at: null callback");
  const std::uint32_t origin = context_queue();
  QueueState& oq = queues_[origin];
  if (when < oq.local_now) when = oq.local_now;  // no scheduling into the past
  return schedule_keyed(queue, when, order_key(origin, ++oq.ctr),
                        std::move(fn),
                        tracer_.enabled() ? tracer_.context() : 0);
}

void Simulation::schedule_cross(std::uint32_t queue, Time when,
                                std::function<void()> fn) {
  if (!fn) throw std::invalid_argument("schedule_cross: null callback");
  const std::uint32_t origin = context_queue();
  QueueState& oq = queues_[origin];
  if (when < oq.local_now) when = oq.local_now;
  const std::uint64_t order = order_key(origin, ++oq.ctr);
  const bool cross = engine_ != nullptr &&
                     // Queues younger than the engine's plan (host added at
                     // this barrier) are not executed by any worker until
                     // the plan resyncs, so the direct insert is race-free
                     // for them.
                     queue < engine_->island_of.size() &&
                     origin < engine_->island_of.size() &&
                     engine_->island_of[queue] != engine_->island_of[origin];
  if (cross && engine_->use_inbox.load(std::memory_order_acquire)) {
    // Mid-window, genuinely cross-island: hand the delivery to the target
    // island's inbox; it is integrated at a barrier. The key travels with
    // it, so calendar order is independent of which barrier integrates it.
    // (Same-island sends fall through to the direct insert below — the
    // calling worker owns both calendars, and a low-latency local message
    // must stay executable inside the current window to keep the committed
    // stream key-ascending.)
    IslandEngine::Inbox& ib = *engine_->inboxes[queue];
    std::lock_guard<std::mutex> lk(ib.mu);
    ib.entries.push_back(IslandEngine::CrossEntry{when, order, std::move(fn)});
    return;
  }
  // Quiescent (setup code, control context, strict executor) or
  // same-island: schedule straight into the target calendar under the key.
  schedule_keyed(queue, when, order, std::move(fn),
                 tracer_.enabled() ? tracer_.context() : 0);
  if (cross) engine_->count_cross(queue);  // stats parity with the inbox path
}

EventId Simulation::schedule_keyed(std::uint32_t queue, Time when,
                                   std::uint64_t order,
                                   std::function<void()> fn, RecordId cause) {
  QueueState& q = queues_[queue];
  if (when < q.local_now) when = q.local_now;
  std::uint32_t slot;
  if (q.free_slots.empty()) {
    slot = static_cast<std::uint32_t>(q.slots.size());
    if (slot >= kMaxSlots) {
      throw std::length_error("schedule: too many live events on one queue");
    }
    q.slots.emplace_back();
  } else {
    slot = q.free_slots.back();
    q.free_slots.pop_back();
  }
  EventRecord& rec = q.slots[slot];
  rec.fn = std::move(fn);
  rec.cause = cause;
  const std::uint32_t gen = rec.gen;

  const std::uint64_t key = bucket_key(when);
  const auto [it, inserted] = q.bucket_of.try_emplace(key, 0);
  std::uint32_t bi;
  if (inserted) {
    if (q.free_buckets.empty()) {
      bi = static_cast<std::uint32_t>(q.buckets.size());
      q.buckets.emplace_back();
    } else {
      bi = q.free_buckets.back();
      q.free_buckets.pop_back();
    }
    q.buckets[bi].key = key;
    it->second = bi;
    heap_push(q, BucketRef{when, bi});
  } else {
    bi = it->second;
  }
  // Keep the bucket's unexecuted tail order-ascending. Appends dominate (one
  // comparison); an insert before the tail happens when a barrier-integrated
  // delivery from a higher-origin queue already sits at this timestamp.
  // Cancelled entries keep their place in the order, so the comparison
  // never needs the slab. Positions before the drain cursor are untouchable
  // — stopping the slide there also places a same-time self-post (a handler
  // posting follow-up work at `now`) after the already-executed event that
  // caused it, which is the causal order both executors commit.
  Bucket& b = q.buckets[bi];
  std::size_t pos = b.items.size();
  while (pos > b.next && b.items[pos - 1].order > order) --pos;
  b.items.insert(b.items.begin() + static_cast<std::ptrdiff_t>(pos),
                 PendingEvent{when, order, slot, gen});
  ++q.live;
  // A key below the cached front becomes the front: it opened an earlier
  // bucket or slid to the cursor of the front one.
  if (q.front_known &&
      (q.front_empty ||
       DigestKey{when, order} < DigestKey{q.front_when, q.front_order})) {
    q.front_empty = false;
    q.front_when = when;
    q.front_order = order;
  }
  // EventId: queue:14 | slot+1:22 | gen:28, so 0 stays kInvalidEvent.
  return (static_cast<EventId>(queue) << 50) |
         ((static_cast<EventId>(slot) + 1) << 28) |
         static_cast<EventId>(gen & kGenMask);
}

bool Simulation::cancel(EventId id) {
  // kInvalidEvent carries no owning queue (it decodes to queue 0), so it
  // must short-circuit before the island police below — daemons routinely
  // cancel never-armed timer handles (e.g. a Startd whose io_interval is
  // disabled).
  if (id == kInvalidEvent) return false;
  // Police before decoding: the owning queue is encoded in the id, and even
  // *reading* another island's slot array mid-window is a race. A cancel
  // reaching across islands would race with the target's dispatch — it is
  // exactly the cross-host state access the partition contract forbids, so
  // fail loudly.
  if (!may_cancel(id)) {
    throw std::logic_error("cancel: event belongs to another island's queue");
  }
  const std::uint32_t queue = static_cast<std::uint32_t>(id >> 50);
  const std::uint64_t slot_p1 = (id >> 28) & ((1ull << 22) - 1);
  if (queue >= queues_.size()) return false;
  QueueState& q = queues_[queue];
  if (slot_p1 == 0 || slot_p1 > q.slots.size()) return false;
  EventRecord& rec = q.slots[static_cast<std::size_t>(slot_p1 - 1)];
  if ((rec.gen & kGenMask) != (id & kGenMask) || !rec.fn) return false;
  rec.fn = nullptr;
  ++rec.gen;  // invalidates the pending entry and any outstanding id copy
  q.front_known = false;
  q.free_slots.push_back(static_cast<std::uint32_t>(slot_p1 - 1));
  --q.live;
  ++q.tombstones;  // buried entry; settled when the lazy deletion drains it
  return true;
}

bool Simulation::may_cancel(EventId id) const {
  const std::uint32_t context = context_queue();
  return context == 0 || context == static_cast<std::uint32_t>(id >> 50);
}

// FNV-1a over the 24 little-endian bytes of (time bits, origin, counter).
// A zero byte only multiplies by the prime (xor with 0 is the identity), so
// each run of zero bytes — the high bytes of small origins and counters, the
// low mantissa bytes of round timestamps — folds into one multiply by a
// power of the prime: the same digest for a far shorter serial multiply
// chain on the dispatch hot path.
void Simulation::fold_digest(Time when, std::uint64_t order) {
  const std::uint64_t words[] = {time_bits(when), order >> kOrderBits,
                                 order & kCtrMask};
  std::uint64_t digest = trace_digest_;
  int zeros = 0;  // zero bytes passed but not yet multiplied in
  for (const std::uint64_t word : words) {
    if (word == 0) {
      zeros += 8;
      continue;
    }
    const int low = std::countr_zero(word) / 8;
    const int high = 8 - std::countl_zero(word) / 8;
    digest *= kFnvPrimePow[static_cast<std::size_t>(zeros + low)];
    for (int byte = low; byte < high; ++byte) {
      digest = (digest ^ ((word >> (8 * byte)) & 0xff)) * kFnvPrime;
    }
    zeros = 8 - high;
  }
  trace_digest_ = digest * kFnvPrimePow[static_cast<std::size_t>(zeros)];
}

void Simulation::dispatch(std::uint32_t queue, const PendingEvent& ev) {
  QueueState& q = queues_[queue];
  EventRecord& rec = q.slots[ev.slot];
  // Move the handler out and retire the slot before invoking: the callback
  // may schedule (reusing this slot under a fresh generation) or cancel
  // other events.
  std::function<void()> fn = std::move(rec.fn);
  const RecordId cause = rec.cause;
  rec.fn = nullptr;
  rec.cause = 0;
  ++rec.gen;
  q.free_slots.push_back(ev.slot);
  --q.live;
  q.local_now = ev.when;
  ++q.events;
  CONDORG_LOG_TRACE(kernel_logger(), "dispatch t=", ev.when,
                    " order=", ev.order);
  // In a parallel window the coordinator commits the merged stream in key
  // order at the barrier; otherwise the executor committed this key
  // (monotonicity-checked) before calling us.
  if (t_window_log != nullptr) {
    t_window_log->push_back(DigestKey{ev.when, ev.order});
  }
  ScopedQueue context(this, queue);
  if (tracer_.enabled()) {
    // Re-install the causal cursor captured when this event was scheduled:
    // records emitted by the callback chain off the record that caused it.
    Tracer::ScopedContext tracer_context(tracer_, cause);
    fn();
  } else {
    fn();
  }
  // Audit after the callback returns: between events every daemon's state is
  // quiescent, so cross-daemon invariants are meaningful.
  if (auditor_ != nullptr && dispatched_ % audit_period_ == 0) {
    auditor_->run(q.local_now);
  }
}

Simulation::PendingEvent Simulation::take_event(QueueState& q,
                                                std::size_t index) {
  q.front_known = false;
  Bucket& b = q.buckets[q.heap.front().bucket];
  if (index == kFront || index == b.next) return b.items[b.next++];
  // A controller picked past the cursor: remove from the middle so no entry
  // dispatches twice. O(bucket) — exploration runs only.
  const PendingEvent ev = b.items[index];
  b.items.erase(b.items.begin() + static_cast<std::ptrdiff_t>(index));
  return ev;
}

void Simulation::run_islands(Time until, bool bounded) {
  if (engine_ == nullptr) engine_ = std::make_unique<IslandEngine>(*this);
  refresh_plan();
  engine_->sync_plan();
  for (QueueState& q : queues_) q.halted = false;
  stopped_.store(false, std::memory_order_relaxed);
  engine_->last_key = DigestKey{-kInfTime, 0};
  // A global observer (Tracer, auditor, controller) must see the one true
  // stream from one thread; otherwise run the parallel windowed executor —
  // including for one worker, so every thread count runs the same
  // algorithm.
  if (tracer_.enabled() || auditor_ != nullptr || controller_ != nullptr) {
    engine_->run_strict(until, bounded);
  } else {
    engine_->run_windows(until, bounded);
  }
  // The control clock is the committed global clock: the last committed
  // event's time, or the horizon of a bounded run that was not stopped.
  QueueState& control = queues_[0];
  if (control.local_now < engine_->last_key.when) {
    control.local_now = engine_->last_key.when;
  }
  if (bounded) {
    if (!stopped_.load(std::memory_order_relaxed)) {
      for (QueueState& q : queues_) {
        if (q.local_now < until) q.local_now = until;
      }
    }
    for (QueueState& q : queues_) drop_stale_front(q);
  }
  if (profiler_.enabled()) {
    // Quiescent epilogue: export the per-island execution summary so
    // condorg_report --profile can show where the parallel run spent its
    // time (events vs barrier waits).
    std::vector<Profiler::IslandRow> rows;
    for (const IslandStat& st : island_stats()) {
      Profiler::IslandRow row;
      row.events = st.events;
      row.inbox_messages = st.inbox_messages;
      row.epochs = st.epochs;
      row.blocked_ns = st.blocked_ns;
      row.busy_ns = st.busy_ns;
      rows.push_back(row);
    }
    profiler_.set_island_rows(std::move(rows));
  }
}

void Simulation::run() { run_islands(kInfTime, false); }

bool Simulation::run_until(Time until) {
  run_islands(until, true);
  return pending() != 0;
}

void Simulation::stop() {
  stopped_.store(true, std::memory_order_relaxed);
  const TlsContext& tls = tls_context();
  if (tls.sim == this && tls.queue != 0) {
    // Halt the calling island immediately; the other islands finish the
    // window (the committed window content is what keeps the digest
    // independent of the worker count).
    queues_[tls.queue].halted = true;
  }
}

}  // namespace condorg::sim
