// Determinism sanitizer (DetSan): dynamic partition-safety checking.
//
// The grid in the paper is partitionable by construction — each user's
// agent (Schedd, GridManager, CredentialManager, personal Collector/
// Negotiator) lives on the submit host, each site's Gatekeeper/JobManager/
// StagingCache on the site front-end, and they interact only through
// sim::Network messages. ROADMAP item 2 (sharding the calendar-queue
// kernel into conservatively-synchronized islands) depends on that
// property actually holding in the code: one direct cross-host method
// call on daemon state would break digest-identical island parallelism.
//
// DetSan verifies the property at runtime. The kernel stamps the host of
// the currently-dispatching event into a thread-local (ScopedHost, set by
// Host::post wrappers, Network delivery, and crash/boot callbacks), and
// every daemon state member wrapped in det::HostLocal<T> asserts on
// access that the accessor's host matches the owner. Driver, test, and
// harness code runs with a null current host and is always allowed — the
// invariant is about event-context access, which is exactly what island
// parallelism would distribute. Ownership migration (e.g. state handed to
// another host through a message) must be declared with handoff().
//
// The check itself is one predictable branch on a process-wide flag, so
// the machinery is always compiled in; `cmake -DCONDORG_DETSAN=ON` (or
// the CONDORG_DETSAN=1 environment variable, read by sim::World) arms it.
// Violations are collected, not fatal: exploration scenarios fold them
// into RunOutcome::violations so the Explorer can replay a violating
// schedule as a deterministic counterexample.
//
// The static side of the same contract lives in
// tools/analyze/condorg_partition.py, which reads the
// CONDORG_HOST_LOCAL() class annotations below to build the
// state-ownership map (partition_report.json).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace condorg::sim {
class Host;
}  // namespace condorg::sim

namespace condorg::det {

/// Class-level partition annotation, consumed by the static analyzer.
/// Tag values name the deployment partition of the owning host:
///   "user"    — the submit host (agent daemons, personal pool, GASS server)
///   "site"    — a site front-end (Gatekeeper, JobManager, StagingCache)
///   "central" — shared infrastructure hosts (GIIS directory, MyProxy)
#define CONDORG_HOST_LOCAL(partition) \
  static constexpr const char* kCondorgPartition = (partition)

/// One recorded ownership violation. `when` is the owner host's clock at
/// the moment of access; owner/accessor are host names ("" for a null
/// accessor, which cannot happen — null contexts are always allowed).
struct Violation {
  double when = 0.0;
  std::string owner;
  std::string accessor;
  std::string label;

  /// Deterministic one-line rendering, stable across runs of one schedule.
  std::string format() const;
};

namespace detail {
// Process-wide arm flag; the per-thread current-host stamp lives entirely
// inside det.cpp (it is thread_local by design — under the PR 7 island
// scheduler each worker thread dispatches events for its own island and
// stamps independently — and confining it to one TU keeps every access on
// the direct TLS path, which GCC's UBSan mis-flags through the cross-TU
// wrapper). The disarmed fast path touches only this plain bool.
// lint-allow(mutable-global): detsan arm flag (definition in det.cpp)
extern bool g_enabled;
/// Stamp `host` as the dispatching host; returns the previous stamp.
const sim::Host* swap_current(const sim::Host* host);
/// Armed-path ownership check: records a violation when the current
/// stamp is non-null and differs from `owner`.
void check_slow(const sim::Host* owner, const char* label);
}  // namespace detail

inline bool enabled() { return detail::g_enabled; }
void set_enabled(bool on);
/// Arms DetSan when the CONDORG_DETSAN environment variable is set to a
/// non-empty value other than "0". Returns the resulting enabled state.
bool arm_from_env();

/// Host of the event currently being dispatched; nullptr outside event
/// context (driver, tests, harness probes).
const sim::Host* current_host();

/// Drain collected violations (at most kMaxRecorded are kept; the total
/// count keeps incrementing past the cap). Resets both.
std::vector<Violation> take_violations();
/// Violations recorded since the last take_violations(), including any
/// dropped past the storage cap.
std::size_t violation_count();

/// CLI epilogue: print collected violations to stderr (each line prefixed
/// with `what`), drain them, and return how many were recorded. A nonzero
/// return is a partition-safety failure the caller should exit on.
std::size_t report(const char* what);

/// RAII stamp of the dispatching host. The kernel wrap points (Host::post,
/// Network delivery, crash/boot callbacks) install one; harness code that
/// must read cross-host state (e.g. the Explorer's state probe) installs
/// ScopedHost(nullptr) to run privileged.
class ScopedHost {
 public:
  explicit ScopedHost(const sim::Host* host)
      : previous_(detail::swap_current(host)) {}
  ~ScopedHost() { detail::swap_current(previous_); }

  ScopedHost(const ScopedHost&) = delete;
  ScopedHost& operator=(const ScopedHost&) = delete;

 private:
  const sim::Host* previous_;
};

/// A daemon state member owned by one host. Every access path (->, *,
/// assignment, implicit read) checks accessor == owner when DetSan is
/// armed. Const access through a const HostLocal is deep-const; declare
/// the member `mutable` to keep interior mutability (Collector's prune()
/// caches), which preserves today's semantics exactly.
template <typename T>
class HostLocal {
 public:
  template <typename... Args>
  explicit HostLocal(sim::Host& owner, const char* label, Args&&... args)
      : owner_(&owner), label_(label), value_(std::forward<Args>(args)...) {}

  HostLocal(const HostLocal&) = delete;
  HostLocal& operator=(const HostLocal&) = delete;

  T* operator->() {
    check();
    return &value_;
  }
  const T* operator->() const {
    check();
    return &value_;
  }
  T& operator*() {
    check();
    return value_;
  }
  const T& operator*() const {
    check();
    return value_;
  }
  /// Implicit read for scalar-like members (JobManager::state_ compares
  /// and switches on its state enum all over).
  operator const T&() const {  // NOLINT(google-explicit-constructor)
    check();
    return value_;
  }
  HostLocal& operator=(const T& v) {
    check();
    value_ = v;
    return *this;
  }
  HostLocal& operator=(T&& v) {
    check();
    value_ = std::move(v);
    return *this;
  }

  const sim::Host* owner() const { return owner_; }
  const char* label() const { return label_; }

  /// Declared ownership migration: the state now belongs to `new_owner`.
  /// The handoff itself must be performed by the current owner (or a null
  /// context) — handing off someone else's state is itself a violation.
  void handoff(sim::Host& new_owner) {
    check();
    owner_ = &new_owner;
  }

 private:
  void check() const {
    if (detail::g_enabled) [[unlikely]] {
      detail::check_slow(owner_, label_);
    }
  }

  const sim::Host* owner_;
  const char* label_;
  T value_;
};

}  // namespace condorg::det
