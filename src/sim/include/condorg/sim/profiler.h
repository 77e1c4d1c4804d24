// Kernel profiler: measured dispatch counts, handler cost, and the
// cross-host traffic matrix.
//
// The protocol spec (src/proto/protocols.json) declares which message types
// cross the island cut; the Profiler measures that boundary dynamically. When
// armed it counts every Network delivery per (destination host, daemon,
// message type) and every Host::post timer fire per host, accumulating the
// real (wall-clock) nanoseconds each handler burned — the only place in
// src/ allowed to read the host clock, because it measures the simulator
// itself, never simulated behavior. The per-(from host, to host, type)
// aggregation is the traffic matrix an island partitioning would cut;
// tools/condorg_profile_check compares it with the spec's cut types in
// build/proto_report.json.
//
// Like the Tracer and DetSan, the machinery is always compiled in and costs
// one predictable branch when disarmed; sim::World arms it from the
// CONDORG_PROFILE environment variable. Counts and bytes are fully
// deterministic (same seed, same matrix); wall-clock columns are not, so
// to_json(include_wall=false) omits them for byte-stable exports.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "condorg/sim/message.h"
#include "condorg/util/json.h"

namespace condorg::sim {

class Profiler {
 public:
  Profiler() = default;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Deterministic per-delivery accumulation (count + bytes), plus the
  /// measured wall-clock cost of the handler invocation.
  struct Cell {
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::uint64_t wall_ns = 0;
  };
  /// (from host, to host, daemon, message type). The daemon is the
  /// destination service with per-instance suffixes folded (one JobManager
  /// service exists per contact; the matrix wants the daemon family).
  using MessageKey = std::tuple<std::string, std::string, std::string,
                                std::string>;

  /// Record one delivered message whose handler burned `wall_ns`.
  void record_message(const Message& message, std::uint64_t wall_ns);
  /// Record one Host::post / post_any_epoch timer fire on `host`.
  void record_timer(const std::string& host, std::uint64_t wall_ns);

  /// Monotonic host-clock nanoseconds (for the enabled-path hooks only).
  static std::uint64_t clock_ns();

  /// "gram.jm.<contact>" -> "gram.jm", everything else unchanged.
  static std::string daemon_family(const std::string& service);

  const std::map<MessageKey, Cell>& messages() const { return messages_; }
  const std::map<std::string, Cell>& timers() const { return timers_; }

  /// Message types observed between two *distinct* hosts, aggregated over
  /// host pairs — the dynamic side of the island-cut classification.
  std::map<std::string, Cell> cross_host_types() const;

  /// One row per island of the parallel kernel, pushed by the Simulation
  /// when a windowed run finishes. events/inbox/epochs are deterministic;
  /// the blocked/busy columns are wall clock and gated on include_wall.
  struct IslandRow {
    std::uint64_t events = 0;
    std::uint64_t inbox_messages = 0;
    std::uint64_t epochs = 0;
    std::uint64_t blocked_ns = 0;
    std::uint64_t busy_ns = 0;
  };
  void set_island_rows(std::vector<IslandRow> rows);

  /// Full export: dispatch table per (host, daemon, type), timer table per
  /// host, and the from->to traffic matrix. Deterministic unless
  /// include_wall adds the measured nanosecond columns.
  util::JsonValue to_json(bool include_wall) const;

 private:
  // Island workers record concurrently; the lock is taken only on the
  // armed path (CONDORG_PROFILE=1). Aggregation is commutative sums into
  // ordered maps, so the final tables are identical for every worker
  // interleaving — the determinism contract of to_json(false) survives
  // parallel runs. Readers (accessors, to_json) run quiescent.
  mutable std::mutex mu_;
  bool enabled_ = false;
  std::map<MessageKey, Cell> messages_;
  std::map<std::string, Cell> timers_;
  std::vector<IslandRow> island_rows_;  // written quiescent (run epilogue)
};

}  // namespace condorg::sim
