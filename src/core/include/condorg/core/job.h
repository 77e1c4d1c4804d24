// Job model for the Condor-G agent's queue.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "condorg/classad/classad.h"
#include "condorg/sim/message.h"
#include "condorg/sim/types.h"

namespace condorg::core {

/// Which execution machinery handles the job.
enum class Universe {
  kGrid,     // submitted to a remote site via GRAM (the "Globus" universe)
  kVanilla,  // matched to pool slots (local or glided-in) by the Negotiator
};

/// Condor job states as the user sees them.
enum class JobStatus {
  kIdle,       // queued, waiting for submission/match
  kRunning,    // submitted to a site / executing on a slot
  kHeld,       // needs user attention (credential expiry, repeated failure)
  kCompleted,
  kRemoved,
};

const char* to_string(Universe universe);
const char* to_string(JobStatus status);
Universe universe_from_string(const std::string& text);
JobStatus status_from_string(const std::string& text);

/// What the user hands to Schedd::submit — deliberately shaped like a
/// Condor submit file ("nothing new or special about the semantics of these
/// capabilities", §4.1).
struct JobDescription {
  Universe universe = Universe::kGrid;
  std::string owner = "user";
  std::string executable = "a.out";
  std::string output;              // staged back on completion (grid)
  double runtime_seconds = 60.0;   // compute demand (total work, vanilla)
  int cpus = 1;
  double walltime_limit = std::numeric_limits<double>::infinity();
  std::uint64_t output_size = 1024;
  std::uint64_t executable_size = 1 << 20;
  /// Fixed destination gatekeeper host (grid universe); empty = let the
  /// resource broker choose.
  std::string grid_site;
  /// Extra attributes merged into the job's ClassAd (Requirements, Rank...).
  classad::ClassAd ad;
  int max_attempts = 10;
  bool notify_email = true;
  std::string tag;  // opaque user annotation
};

/// A job in the queue: description + progress bookkeeping. Stable storage
/// holds it as two records: the description (with the id and submit time),
/// written once at submit, and the state (every field below `desc` but the
/// submit time), rewritten on every transition.
struct Job {
  std::uint64_t id = 0;
  JobDescription desc;
  JobStatus status = JobStatus::kIdle;
  std::string hold_reason;
  int attempts = 0;

  // Grid-universe bookkeeping (exactly-once submission).
  std::uint64_t gram_seq = 0;    // 0 = none allocated
  std::string gram_contact;      // empty until the site acknowledged
  std::string gram_site;         // chosen gatekeeper host
  std::string remote_state;      // last GRAM state string

  // Vanilla-universe bookkeeping.
  double checkpointed_work = 0;

  sim::Time submit_time = 0;
  sim::Time first_execute_time = -1;
  sim::Time completion_time = -1;

  std::string description_record() const;
  /// Fixed field order, one 0x1f separator between fields: the state
  /// strings must not contain it (as with Payload).
  std::string state_record() const;
  /// Rebuild a job from its two records. A state record that does not
  /// parse leaves the progress fields at their defaults.
  static Job from_records(const std::string& description,
                          std::string_view state);
};

}  // namespace condorg::core
