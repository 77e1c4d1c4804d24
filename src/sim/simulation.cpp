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

// Capacity (in entries) a drained cross-island inbox may keep for reuse.
// Recycled buffers above it are released: inboxes rotate through every
// barrier, so keeping each one's high-water capacity lets a few herd-timer
// peaks pin memory in every inbox.
constexpr std::size_t kRecycledCapacity = 32;

// take_event position of the heap front.
constexpr std::size_t kFront = 0;

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
// It owns the worker pool, the per-queue cross-island inboxes, the island
// front-key index, and the window/barrier loop. Queue state is only ever
// touched by (a) the coordinator between barriers or (b) the single worker
// executing that queue's island inside a window — the barrier handshake (the
// mutex that publishes a window, the atomic completion count that closes it)
// provides the happens-before edges, so the calendars need no locks.
//
// Kernel cost follows the islands with work, not the island count: the
// index keeps each island's front key, a window visits only the islands
// whose front is below its bound, and a barrier integrates only the inboxes
// that went non-empty.
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
  // Queues whose inbox went non-empty since the last integration, recorded
  // by the sender that made the transition while it holds that inbox's
  // lock. An inbox transitions once per integration, so `filled` (sized to
  // the inbox count) never overflows; the count is atomic because senders
  // on different inboxes append concurrently.
  std::vector<std::uint32_t> filled;
  std::atomic<std::size_t> filled_count{0};
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
  std::vector<std::uint32_t> islands;               // non-control, non-empty
  Time lookahead = kInfTime;

  // --- island front-key index ---------------------------------------------
  // A 4-ary min-heap (the calendar heap's shape) holding one entry per
  // non-control island that has a pending event and is not stopped, keyed
  // by the island's front: its least pending key over its member queues.
  // heap_pos locates an island's entry so a re-read sifts it in place. The
  // control queue is never indexed: the executors peek it directly, so a
  // control event can never be mistaken for island work (a window must not
  // be opened for it). An entry is re-read only when its calendar may have
  // changed: its island ran (a window, or one strict dispatch), its inbox
  // was integrated, or an event from another island's context reached it
  // (mark()).
  struct Front {
    DigestKey key;
    std::uint32_t island = 0;
    std::uint32_t queue = 0;  // member queue holding the front event
  };
  static constexpr std::uint32_t kAbsent =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<Front> heap;               // min-heap on Front::key
  std::vector<std::uint32_t> heap_pos;   // island -> heap position or kAbsent
  std::vector<std::uint32_t> marked;     // islands to re-read at the barrier
  std::vector<char> is_marked;           // island -> already in `marked`
  std::vector<std::uint32_t> window;     // this window's islands, ascending

  // Merge cursors into the window logs (coordinator only).
  struct LogHead {
    DigestKey key;
    std::uint32_t island;
    std::size_t pos;  // position of `key` in that island's log
  };
  std::vector<LogHead> heads;  // min-heap on key

  std::vector<Simulation::IslandStat> stats;
  std::vector<std::vector<DigestKey>> logs;       // per-island window logs
  // Blocked time is derived, not charged per window: an island is blocked
  // for whatever part of the profiled window wall it spent as a work island
  // and not executing (see charged_wall). wall_mark holds, per island, the
  // wall total at which its current stretch as a work island began minus
  // the wall charged before it (or, while it is not a work island, the
  // wall charged so far), so a plan change only flips the islands that
  // joined or left.
  std::uint64_t wall_ns = 0;  // total wall of the profiled windows
  std::vector<std::uint64_t> wall_mark;

  // Scratch for the controller's choice point (run_strict only).
  struct Candidate {
    DigestKey key;
    std::uint32_t queue;
    std::size_t index;  // position in the queue's heap
  };
  std::vector<Candidate> candidates;

  // --- worker pool / barrier ----------------------------------------------
  std::vector<std::thread> workers;
  std::mutex mu;
  std::condition_variable cv_work;
  std::condition_variable cv_done;
  std::uint64_t job_seq = 0;
  std::size_t work_size = 0;  // |window| of the current window
  bool quit = false;
  // Islands executed this window. Counted without the mutex; only the
  // completion that finishes the window takes `mu`, to wake the
  // coordinator (which re-checks the count under `mu`, so the wake-up
  // cannot be lost). The acq_rel increments chain every worker's writes
  // into the coordinator's acquire load.
  std::atomic<std::size_t> completed{0};
  // Claim word: window generation (high 32, = job_seq) | next work index
  // (low 32). Claims CAS the low half and are only valid while the high
  // half still matches the generation the claimant adopted under `mu` — a
  // straggler whose claim loop outlives its window can therefore never
  // claim (or even index `window` for) a window it did not enter through
  // the mutex handshake, which is what makes the coordinator's
  // between-window calendar/plan mutations safe to run unlocked.
  std::atomic<std::uint64_t> claim_state{0};

  DigestKey bound{};     // current window bound (exclusive)
  DigestKey last_key{};  // last committed key of the current run
  bool profiling = false;

  // -------------------------------------------------------------------------

  // Re-derive the layout from a freshly built plan, then re-read every
  // island's front (island ids may have moved).
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
    // Flip the wall mark of the islands leaving and then of those joining
    // (one in both flips twice, back to where it was).
    for (const std::uint32_t island : islands) {
      wall_mark[island] = wall_ns - wall_mark[island];
    }
    islands.clear();
    for (std::uint32_t i = 1; i < count; ++i) {
      if (!members[i].empty()) islands.push_back(i);
    }
    if (wall_mark.size() < count) wall_mark.resize(count, 0);
    for (const std::uint32_t island : islands) {
      wall_mark[island] = wall_ns - wall_mark[island];
    }
    // A single work island can never receive a mid-window message from a
    // peer, so it may run unbounded by lookahead.
    if (islands.size() <= 1) lookahead = kInfTime;
    if (stats.size() < count) stats.resize(count);
    if (logs.size() < count) logs.resize(count);
    while (inboxes.size() < queues) {
      inboxes.push_back(std::make_unique<Inbox>());
    }
    filled.resize(inboxes.size());
    // Island ids may have moved: drop the old index before rebuilding.
    heap.clear();
    heap_pos.assign(count, kAbsent);
    marked.clear();
    is_marked.assign(count, 0);
    rebuild_index();
  }

  // Window wall charged to `island` while it was a work island.
  std::uint64_t charged_wall(std::uint32_t island) const {
    const bool work =
        island != 0 && island < members.size() && !members[island].empty();
    return work ? wall_ns - wall_mark[island] : wall_mark[island];
  }

  // Peek the next key of one queue; false if the queue is empty.
  bool peek_key(Simulation::QueueState& q, DigestKey* out) {
    if (!q.front_live) {
      sim.drop_stale_front(q);
      q.front_live = true;
    }
    if (q.heap.empty()) return false;
    const Simulation::PendingEvent& e = q.heap.front();
    *out = DigestKey{e.when, e.order};
    return true;
  }

  bool halted(std::uint32_t island) const {
    for (const std::uint32_t qid : members[island]) {
      if (sim.queues_[qid].halted) return true;
    }
    return false;
  }

  // --- the front-key index (coordinator only) ------------------------------

  void place(std::size_t pos, const Front& front) {
    heap[pos] = front;
    heap_pos[front.island] = static_cast<std::uint32_t>(pos);
  }

  // Put `front` into the hole at `pos`, moving it up or down to its place.
  // Front keys are distinct (every event's key is unique), so the heap
  // order is total.
  void sift(std::size_t pos, const Front& front) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) >> 2;
      if (!(front.key < heap[parent].key)) break;
      place(pos, heap[parent]);
      pos = parent;
    }
    for (;;) {
      const std::size_t first = (pos << 2) + 1;
      if (first >= heap.size()) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, heap.size());
      for (std::size_t c = first + 1; c < end; ++c) {
        if (heap[c].key < heap[best].key) best = c;
      }
      if (!(heap[best].key < front.key)) break;
      place(pos, heap[best]);
      pos = best;
    }
    place(pos, front);
  }

  // Re-read one island's front and sift its entry into place; an empty or
  // stopped island leaves the index.
  void reindex(std::uint32_t island) {
    Front front{{}, island, 0};
    bool found = false;
    if (!halted(island)) {
      for (const std::uint32_t qid : members[island]) {
        DigestKey k;
        if (!peek_key(sim.queues_[qid], &k)) continue;
        if (!found || k < front.key) {
          found = true;
          front.key = k;
          front.queue = qid;
        }
      }
    }
    const std::uint32_t pos = heap_pos[island];
    if (found) {
      if (pos == kAbsent) {
        heap.emplace_back();
        sift(heap.size() - 1, front);
      } else {
        sift(pos, front);
      }
    } else if (pos != kAbsent) {
      heap_pos[island] = kAbsent;
      const Front last = heap.back();
      heap.pop_back();
      if (last.island != island) sift(pos, last);
    }
  }

  void rebuild_index() {
    for (const Front& front : heap) heap_pos[front.island] = kAbsent;
    heap.clear();
    for (const std::uint32_t island : marked) is_marked[island] = 0;
    marked.clear();
    for (const std::uint32_t island : islands) reindex(island);
  }

  // An event from another island's context (the control context, or any
  // event under the strict executor) scheduled onto or cancelled on
  // `queue`, a planned queue: its island re-reads its front at the next
  // barrier (the next event, under the strict executor). Windowed workers
  // never get here: their cross-island traffic goes through the inboxes,
  // and schedule/cancel on another island throws. The control queue is
  // never indexed, so a mark on it is dropped.
  void mark(std::uint32_t queue) {
    const std::uint32_t island = island_of[queue];
    if (island == 0 || is_marked[island] != 0) return;
    is_marked[island] = 1;
    marked.push_back(island);
  }

  void reindex_marked() {
    for (const std::uint32_t island : marked) {
      is_marked[island] = 0;
      reindex(island);
    }
    marked.clear();
  }

  // Sender side of the inbox list; call with the inbox's lock held, before
  // the first entry goes in.
  void note_filled(std::uint32_t queue) {
    filled[filled_count.fetch_add(1, std::memory_order_relaxed)] = queue;
  }

  // This window's islands: every indexed island whose front is below the
  // bound, in ascending island order (the order one thread runs them in).
  // A subtree of the heap is at or above its root, so the walk stops at
  // the first entry that is not below the bound.
  void collect_window() {
    window.clear();
    if (!heap.empty() && heap.front().key < bound) window.push_back(0);
    for (std::size_t k = 0; k < window.size(); ++k) {
      const std::size_t first = (std::size_t{window[k]} << 2) + 1;
      const std::size_t end = std::min(first + 4, heap.size());
      for (std::size_t c = first; c < end; ++c) {
        if (heap[c].key < bound) window.push_back(static_cast<std::uint32_t>(c));
      }
    }
    for (std::uint32_t& entry : window) entry = heap[entry].island;
    std::sort(window.begin(), window.end());
  }

  // Coordinator-only: drain the filled inboxes into their target
  // calendars. Serial on purpose — cross traffic is the rare path by design
  // (that is what makes islands worth having), and serial integration keeps
  // determinism trivial. Runs only at barriers: every sender finished
  // before the barrier handshake, so neither the inboxes nor any calendar
  // can be touched concurrently and the inbox locks are not needed here.
  void integrate_all() {
    const std::size_t count = filled_count.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint32_t qid = filled[k];
      Inbox& ib = *inboxes[qid];
      // Swap the batch out; the arena the previous integration left behind
      // (empty, capacity bounded below) becomes this inbox's buffer.
      std::swap(batch_arena, ib.entries);
      // Arrival order from racing senders is nondeterministic; the heap
      // makes the dispatch order depend on the key alone, but sort anyway
      // so even transient structures (heap layout, slot assignment) are
      // run-to-run stable.
      std::sort(batch_arena.begin(), batch_arena.end(),
                [](const CrossEntry& a, const CrossEntry& b) {
                  return DigestKey{a.when, a.order} < DigestKey{b.when, b.order};
                });
      for (CrossEntry& e : batch_arena) {
        sim.schedule_keyed(qid, e.when, e.order, std::move(e.fn), 0);
      }
      stats[island_of[qid]].inbox_messages += batch_arena.size();
      mark(qid);
      batch_arena.clear();
      // The arena becomes the next drained inbox's buffer: bound what it
      // hands on, or every inbox ends up pinning the largest batch.
      if (batch_arena.capacity() > kRecycledCapacity) {
        std::vector<CrossEntry>().swap(batch_arena);
      }
    }
    filled_count.store(0, std::memory_order_relaxed);
  }

  // The direct (strict/setup) cross-schedule path: stats parity, so the
  // per-island inbox totals are identical whichever executor ran, and the
  // target island re-reads its front.
  void direct_cross(std::uint32_t queue) {
    ++stats[island_of[queue]].inbox_messages;
    mark(queue);
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
      const std::uint32_t island = window[k];
      const std::uint64_t t0 = profiling ? clock_ns() : 0;
      execute_island(island);
      if (profiling) stats[island].busy_ns += clock_ns() - t0;
      if (completed.fetch_add(1, std::memory_order_acq_rel) + 1 == size) {
        std::lock_guard<std::mutex> lk(mu);
        cv_done.notify_all();
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
    const std::uint64_t t0 = profiling ? clock_ns() : 0;
    const bool parallel = sim.island_threads_ > 1 && window.size() > 1;
    if (!parallel) {
      // Inline execution stays off the claim word entirely: this path has
      // no end-of-window barrier, so nothing here may invite a worker in.
      for (const std::uint32_t island : window) {
        const std::uint64_t s0 = profiling ? clock_ns() : 0;
        execute_island(island);
        if (profiling) stats[island].busy_ns += clock_ns() - s0;
      }
    } else {
      start_workers(std::min<std::size_t>(sim.island_threads_ - 1,
                                          window.size() - 1));
      {
        std::lock_guard<std::mutex> lk(mu);
        completed.store(0, std::memory_order_relaxed);
        ++job_seq;
        work_size = window.size();
        claim_state.store(job_seq << 32, std::memory_order_release);
      }
      cv_work.notify_all();
      claim_and_execute(job_seq, window.size());
      std::unique_lock<std::mutex> lk(mu);
      cv_done.wait(lk, [&] {
        return completed.load(std::memory_order_acquire) == window.size();
      });
    }
    // Whatever part of the window a work island did not spend executing, it
    // spent blocked on the barrier (or waiting for a worker slot) — the
    // lookahead-starvation signal the report surfaces. Islands with nothing
    // below the bound sat the whole window out: charged_wall covers them
    // too, without a pass over every island here.
    if (profiling) wall_ns += clock_ns() - t0;
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
    for (const std::uint32_t island : window) {
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
      if (s.refresh_plan()) sync_plan();
      reindex_marked();
      DigestKey ctl, isl;
      const bool have_ctl = peek_key(s.queues_[0], &ctl);
      const bool have_isl = !heap.empty();
      if (have_isl) isl = heap.front().key;
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
      collect_window();
      // The least front is below any bound (lookahead > 0, and a capping
      // control event or horizon lies above it): an empty window means the
      // index is out of step with the calendars, which would spin forever.
      if (window.empty()) {
        throw std::logic_error("island kernel: front index out of step");
      }
      run_execute_phase();
      merge_logs();
      for (const std::uint32_t island : window) reindex(island);
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
      if (s.refresh_plan()) sync_plan();
      reindex_marked();
      DigestKey ctl, best;
      const bool have_ctl = peek_key(s.queues_[0], &ctl);
      bool found = have_ctl;
      std::uint32_t best_q = 0;
      if (have_ctl) best = ctl;
      // The least indexed front (a stopped island is not indexed: it idles
      // until the window edge).
      if (!heap.empty()) {
        const Front& front = heap.front();
        if (!found || front.key < best) {
          found = true;
          best = front.key;
          best_q = front.queue;
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
      reindex(island_of[best_q]);
    }
  }

  // The controller's choice point: every live event at the earliest pending
  // time, across the control queue and every running island, offered in key
  // order — the candidate set one global calendar would hold at that
  // instant, so a pick of 0 is exactly the uncontrolled (minimum-key) event.
  // A scan over every queue's whole heap, not the index: exploration
  // worlds are small. Overwrites the key, queue and heap position of the
  // event to dispatch.
  void choose(DigestKey* key, std::uint32_t* queue, std::size_t* index) {
    candidates.clear();
    const auto collect = [&](std::uint32_t qid) {
      Simulation::QueueState& q = sim.queues_[qid];
      DigestKey front;
      if (!peek_key(q, &front) || front.when != key->when) return;
      for (std::size_t i = 0; i < q.heap.size(); ++i) {
        const Simulation::PendingEvent& e = q.heap[i];
        if (e.when == key->when && q.slots[e.slot].gen == e.gen) {
          candidates.push_back(Candidate{DigestKey{e.when, e.order}, qid, i});
        }
      }
    };
    collect(0);
    for (const std::uint32_t island : islands) {
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

bool Simulation::refresh_plan() {
  if (planned_version_ == topology_version_) return false;
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
  return true;
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
  for (std::uint32_t island = 1; island < out.size(); ++island) {
    const std::uint64_t wall = engine_->charged_wall(island);
    out[island].blocked_ns = wall - std::min(wall, out[island].busy_ns);
  }
  return out;
}

// 4-ary min-heap on (when, order), hand-sifted with a hole instead of
// std::push_heap/pop_heap swaps: half the depth of a binary heap and one
// move per level. Keys are unique, so any correct heap yields the same
// dispatch stream.
void Simulation::heap_push(QueueState& q, const PendingEvent& ev) {
  std::size_t i = q.heap.size();
  q.heap.push_back(ev);
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!ev.before(q.heap[parent])) break;
    q.heap[i] = q.heap[parent];
    i = parent;
  }
  q.heap[i] = ev;
}

void Simulation::heap_erase(QueueState& q, std::size_t index) {
  const PendingEvent last = q.heap.back();
  q.heap.pop_back();
  const std::size_t n = q.heap.size();
  if (index == n) return;  // erased the last entry itself
  std::size_t i = index;
  // The last entry fills the hole: up when it precedes the hole's parent
  // (only possible below the front, for a controller's pick), else down.
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!last.before(q.heap[parent])) break;
    q.heap[i] = q.heap[parent];
    i = parent;
  }
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (q.heap[c].before(q.heap[best])) best = c;
    }
    if (!q.heap[best].before(last)) break;
    q.heap[i] = q.heap[best];
    i = best;
  }
  q.heap[i] = last;
}

void Simulation::drop_stale_front(QueueState& q) {
  // Every entry popped here is a cancellation tombstone (the only way a
  // pending entry goes stale): settle the account.
  while (!q.heap.empty() &&
         q.slots[q.heap.front().slot].gen != q.heap.front().gen) {
    --q.tombstones;
    heap_erase(q, 0);
  }
}

EventId Simulation::schedule_at(Time when, std::function<void()> fn) {
  return schedule_on_queue(context_queue(), when, std::move(fn));
}

EventId Simulation::schedule_on_queue(std::uint32_t queue, Time when,
                                      std::function<void()> fn) {
  if (!fn) throw std::invalid_argument("schedule_at: null callback");
  const std::uint32_t origin = context_queue();
  // The partition contract: an event schedules only on its own island.
  // Another island may be mid-window on another worker, so reaching it
  // directly would race; it is reached through the Network
  // (schedule_cross), which hands the delivery over at a barrier. The
  // control context runs at barriers and may schedule anywhere; queues
  // younger than the plan are not executed by anyone until it resyncs.
  if (engine_ != nullptr && queue < engine_->island_of.size()) {
    if (origin == 0) {
      engine_->mark(queue);
    } else if (engine_->island_of[queue] != engine_->island_of[origin]) {
      throw std::logic_error("schedule: event targets another island's queue");
    }
  }
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
    if (ib.entries.empty()) engine_->note_filled(queue);
    ib.entries.push_back(IslandEngine::CrossEntry{when, order, std::move(fn)});
    return;
  }
  // Quiescent (setup code, control context, strict executor) or
  // same-island: schedule straight into the target calendar under the key.
  schedule_keyed(queue, when, order, std::move(fn),
                 tracer_.enabled() ? tracer_.context() : 0);
  if (cross) engine_->direct_cross(queue);
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

  // A new entry never makes the front stale, so front_live stands.
  heap_push(q, PendingEvent{when, order, slot, gen});
  ++q.live;
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
  const std::uint32_t queue = static_cast<std::uint32_t>(id >> 50);
  const std::uint32_t context = context_queue();
  if (context != 0 && context != queue) {
    throw std::logic_error("cancel: event belongs to another island's queue");
  }
  const std::uint64_t slot_p1 = (id >> 28) & ((1ull << 22) - 1);
  if (queue >= queues_.size()) return false;
  QueueState& q = queues_[queue];
  if (slot_p1 == 0 || slot_p1 > q.slots.size()) return false;
  EventRecord& rec = q.slots[static_cast<std::size_t>(slot_p1 - 1)];
  if ((rec.gen & kGenMask) != (id & kGenMask) || !rec.fn) return false;
  rec.fn = nullptr;
  ++rec.gen;  // invalidates the pending entry and any outstanding id copy
  q.front_live = false;
  if (context == 0 && engine_ != nullptr && queue < engine_->island_of.size()) {
    engine_->mark(queue);
  }
  q.free_slots.push_back(static_cast<std::uint32_t>(slot_p1 - 1));
  --q.live;
  ++q.tombstones;  // buried entry; settled when the lazy deletion drains it
  return true;
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
  q.front_live = false;
  const PendingEvent ev = q.heap[index];
  heap_erase(q, index);
  return ev;
}

void Simulation::run_islands(Time until, bool bounded) {
  const bool fresh = engine_ == nullptr;
  if (fresh) engine_ = std::make_unique<IslandEngine>(*this);
  for (QueueState& q : queues_) q.halted = false;
  // Code between runs may have touched any calendar and stopped islands
  // left the index: re-read every island's front (sync_plan does, after a
  // plan change).
  if (refresh_plan() || fresh) {
    engine_->sync_plan();
  } else {
    engine_->rebuild_index();
  }
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
