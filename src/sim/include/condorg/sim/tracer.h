// Per-job distributed tracing for the simulated grid.
//
// The Tracer is an out-of-band observer owned by the Simulation: daemons
// record spans (an interval of work — the life of a job, one GRAM two-phase
// submission) and point events (a probe classifying a fault, a credential
// refresh), each stamped with simulated time, the emitting host, and that
// host's epoch. Because the Tracer lives outside every Host it survives
// crashes, which is exactly what makes it useful: a job's trace shows the
// submit, the epochs it crossed, the recovery ladder, and the completion in
// one ordered timeline.
//
// Records are append-only and fully determined by the event order, so a
// same-seed run exports byte-identical JSONL; a rolling FNV-1a digest over
// the serialized records gives a cheap cross-check against
// Simulation::trace_digest().
//
// Root spans: the Schedd opens one span named "job" per queue entry
// (begin_job) and closes it exactly once when the entry turns terminal
// (end_job). Roots are keyed by (submit host, job id) so multi-agent worlds
// do not collide, and the bookkeeping records double-closes — the invariant
// auditor's orphan/duplicate check reads it back via job_root_state().
//
// Causal edges: every record carries a dense id and the id of the record
// that caused it, turning a job's trace into a DAG instead of a bag of
// spans. The causal cursor lives in the Tracer: each pushed record advances
// it to its own id, and the kernel snapshots the cursor into every
// scheduled event (Simulation::schedule_at) and re-installs it around the
// event's dispatch (ScopedContext). That one choke point covers Host::post
// timers, Network message delivery, and crash/recovery callbacks — the
// effect record of a cross-host RTT points at the record that sent the
// request even when nothing was recorded in between. sim::CriticalPath
// walks these edges backward to attribute latency per phase.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "condorg/sim/types.h"

namespace condorg::sim {

class Simulation;

using SpanId = std::uint64_t;
using RecordId = std::uint64_t;

struct TraceRecord {
  enum class Kind { kSpanBegin, kSpanEnd, kEvent };

  Time t = 0;
  Kind kind = Kind::kEvent;
  SpanId span = 0;    // 0 for plain events
  SpanId parent = 0;  // 0 = root
  std::uint64_t job = 0;  // 0 = not job-scoped
  std::string name;
  std::string host;
  Epoch epoch = 0;
  std::string status;  // span ends only: "ok", "completed", "error", ...
  std::string detail;
  RecordId id = 0;     // dense, 1-based, assigned by Tracer::push
  RecordId cause = 0;  // id of the causally-preceding record; 0 = root cause

  /// One flat JSON object (one JSONL line, without the newline).
  std::string to_json() const;
  /// Parse one JSONL line back into a record; nullopt on malformed input.
  /// from_json(to_json()) round-trips every field byte-for-byte.
  static std::optional<TraceRecord> from_json(std::string_view line);
};

class Tracer {
 public:
  explicit Tracer(Simulation& sim) : sim_(sim) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Disabled by default; when disabled every record call is a cheap no-op.
  /// Callers building expensive detail strings should guard on enabled().
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Causal cursor: the id of the most recent record on the current causal
  /// chain (advanced by every push, re-installed around event dispatch).
  /// 0 outside any chain — the next record becomes a root cause.
  RecordId context() const { return context_; }

  /// RAII install of a causal context. The kernel wraps each event's
  /// dispatch in one, carrying the cursor captured when the event was
  /// scheduled; harness code that wants a fresh chain installs 0.
  class ScopedContext {
   public:
    ScopedContext(Tracer& tracer, RecordId cause)
        : tracer_(&tracer), previous_(tracer.context_) {
      tracer.context_ = cause;
    }
    ~ScopedContext() { tracer_->context_ = previous_; }

    ScopedContext(const ScopedContext&) = delete;
    ScopedContext& operator=(const ScopedContext&) = delete;

   private:
    Tracer* tracer_;
    RecordId previous_;
  };

  SpanId begin_span(std::string_view name, std::uint64_t job,
                    std::string_view host, Epoch epoch, SpanId parent = 0,
                    std::string_view detail = {});
  /// Closes an open span; unknown/already-closed ids are ignored (a crashed
  /// daemon's late callback must not corrupt the trace).
  void end_span(SpanId span, std::string_view status = "ok",
                std::string_view detail = {});
  void event(std::string_view name, std::uint64_t job, std::string_view host,
             Epoch epoch, std::string_view detail = {});

  // --- per-job root spans (owned by the Schedd) ---
  SpanId begin_job(std::uint64_t job, std::string_view host, Epoch epoch,
                   std::string_view detail = {});
  void end_job(std::uint64_t job, std::string_view host,
               std::string_view status, std::string_view detail = {});
  /// Root span id for (host, job); 0 when tracing was off at submit time.
  SpanId job_root(std::string_view host, std::uint64_t job) const;

  enum class RootState { kNone, kOpen, kClosed, kDuplicate };
  RootState job_root_state(std::string_view host, std::uint64_t job) const;
  /// Every known root as (host, job, state) — for audits over the full set.
  std::vector<std::tuple<std::string, std::uint64_t, RootState>> root_states()
      const;

  const std::vector<TraceRecord>& records() const { return records_; }
  std::size_t open_span_count() const { return open_spans_.size(); }

  /// Latency (end.t - begin.t) of each begin/end event pair, matched per job
  /// id in record order. Unmatched begins are dropped.
  std::vector<double> paired_event_latencies(std::string_view begin_name,
                                             std::string_view end_name) const;

  /// FNV-1a over the serialized records (same basis/prime as the kernel's
  /// event-order digest, hashing bytes instead of (time,id) pairs).
  std::uint64_t digest() const { return digest_; }

  std::string to_jsonl() const;
  bool write_jsonl(const std::string& path) const;

 private:
  struct RootInfo {
    SpanId span = 0;
    int begins = 0;
    int ends = 0;
  };
  using RootKey = std::pair<std::string, std::uint64_t>;

  void push(TraceRecord record);

  Simulation& sim_;
  bool enabled_ = false;
  SpanId next_span_ = 1;
  RecordId next_record_ = 1;
  RecordId context_ = 0;
  std::vector<TraceRecord> records_;
  std::map<SpanId, std::size_t> open_spans_;  // span -> begin record index
  std::map<RootKey, RootInfo> roots_;
  std::uint64_t digest_ = 14695981039346656037ull;  // FNV-1a basis
};

}  // namespace condorg::sim
