// Cross-daemon invariant auditing for Condor-G scenarios.
//
// The sim::InvariantAuditor engine runs named checks between events; this
// header supplies the standard check set for a Condor-G world. Per-daemon
// audit() hooks validate each daemon's own state machine; StandardAuditor
// registers those and adds the checks that span daemons and hosts:
//
//   * sequence-number monotonicity — every GRAM sequence number recorded in
//     a queue is strictly below its client's persisted allocator (§3.2's
//     exactly-once bedrock: a seq is allocated-and-persisted before first
//     use, so one above the allocator was never allocated at all);
//   * no job live in two JobManagers — across every attached gatekeeper, a
//     client job (callback + tag) has at most one committed, non-terminal
//     JobManager (the duplicated-execution failure the two-phase protocol
//     exists to prevent);
//   * submission records on stable storage — a Running grid job's contact at
//     an attached site is backed by a JobManager record on that site's disk,
//     so the §4.2 restart ladder always has something to reattach to;
//   * trace-root conservation — when tracing is on, every terminal job in an
//     attached Schedd has exactly one closed root span in the Tracer, no
//     root was opened twice, and no closed root belongs to a still-live job
//     (the observability layer must not lie about job lifecycles).
//
// Queue-count conservation lives in Schedd/GridManager::audit and the
// expired-proxy lease check in CredentialManager::audit; attaching those
// daemons wires them in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "condorg/sim/invariant_auditor.h"

namespace condorg::sim {
class Simulation;
}
namespace condorg::gram {
class Gatekeeper;
}
namespace condorg::condor {
class PoolNegotiator;
}

namespace condorg::core {

class CondorGAgent;
class CredentialManager;
class GridManager;
class Schedd;

class StandardAuditor {
 public:
  /// Attaches its auditor to `sim` (checks run every `period` dispatched
  /// events) and registers the cross-daemon checks. Attach daemons next;
  /// the auditor must outlive the simulation run (detaches in ~).
  explicit StandardAuditor(sim::Simulation& sim, std::uint64_t period = 512);
  ~StandardAuditor();

  StandardAuditor(const StandardAuditor&) = delete;
  StandardAuditor& operator=(const StandardAuditor&) = delete;

  void attach_schedd(Schedd& schedd);
  void attach_gridmanager(GridManager& gridmanager);
  void attach_credential_manager(CredentialManager& credentials);
  void attach_gatekeeper(gram::Gatekeeper& gatekeeper);
  /// Registers the delta-negotiation soundness hook: every recorded
  /// restricted-vs-full matcher disagreement becomes an invariant
  /// violation.
  void attach_pool_negotiator(condor::PoolNegotiator& negotiator);
  /// Schedd + GridManager + CredentialManager + the personal pool's
  /// negotiator in one call.
  void attach_agent(CondorGAgent& agent);

  sim::InvariantAuditor& auditor() { return auditor_; }
  const sim::InvariantAuditor& auditor() const { return auditor_; }
  bool ok() const { return auditor_.ok(); }
  std::string report() const { return auditor_.report(); }

 private:
  sim::Simulation& sim_;
  sim::InvariantAuditor auditor_;
  std::vector<Schedd*> schedds_;
  std::vector<GridManager*> gridmanagers_;
  std::vector<gram::Gatekeeper*> gatekeepers_;
};

}  // namespace condorg::core
