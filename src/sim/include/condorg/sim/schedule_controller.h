// Schedule-space control hook for the deterministic kernel.
//
// Normally the kernel's tie-break contract is fixed: events sharing a
// timestamp dispatch in key (per-context FIFO) order, and message latency
// is base + jitter. A ScheduleController overrides exactly those degrees of
// freedom — which live event at the earliest pending time, on any queue,
// dispatches next, and whether a daemon crashes at a named protocol step —
// without touching the rest of the kernel. sim::Explorer drives this hook
// to enumerate schedules; when no controller is attached every code path
// is bit-for-bit the uncontrolled one, so production runs keep their
// byte-identical trace digests.
#pragma once

#include <cstddef>
#include <string>

#include "condorg/sim/types.h"

namespace condorg::sim {

class ScheduleController {
 public:
  virtual ~ScheduleController() = default;

  /// Choose among `count` (>= 2) live events sharing timestamp `when`.
  /// The kernel dispatches the chosen candidate (in key order, so 0 is the
  /// uncontrolled choice); returns are taken modulo `count`, so any value
  /// is safe.
  virtual std::size_t pick_event(Time when, std::size_t count) = 0;

  /// Consulted by Host::crash_point at each named protocol step. Return
  /// true to crash that host now (it restarts after `*downtime` seconds,
  /// which the controller may overwrite). `point` is a stable label like
  /// "gatekeeper.submit_accepted" — the crash-point taxonomy in DESIGN §11.
  virtual bool inject_crash(const std::string& host, const char* point,
                            double* downtime) = 0;

  /// Remote message deliveries are snapped *up* to the next multiple of
  /// this quantum (instead of base latency + jitter), so messages in flight
  /// concurrently tie on their delivery timestamp and pick_event can
  /// explore every delivery order. Must be > 0.
  virtual double delivery_quantum() const { return 0.05; }
};

}  // namespace condorg::sim
