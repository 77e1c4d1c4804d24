// GRAM protocol definitions (§3.2 of the paper).
//
// The revised GRAM protocol Condor-G relies on adds, over plain remote
// submission:
//   * two-phase commit with client sequence numbers ("exactly once"
//     execution semantics): the request carries a unique sequence number
//     echoed in the response, so a client that re-sends after silence and
//     the resource can distinguish a lost request from a lost response; the
//     job only starts after an explicit commit; and
//   * resource-side fault tolerance: job details are logged to stable
//     storage so a crashed JobManager can be restarted and re-attached to
//     the still-queued-or-running local job.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "condorg/sim/message.h"

namespace condorg::gram {

/// GRAM job states (the subset of the protocol's state machine we model).
enum class GramJobState {
  kUnsubmitted,  // request accepted, awaiting commit
  kStageIn,      // fetching executable/stdin via GASS
  kPending,      // waiting in the site's local queue
  kActive,       // running under the local scheduler
  kDone,         // completed successfully
  kFailed,       // staging failure, walltime kill, cancel, ...
};

/// gram.status_all's answer for a contact no live JobManager holds.
inline constexpr const char* kMissingState = "MISSING";

const char* to_string(GramJobState state);
GramJobState gram_state_from_string(const std::string& text);
bool is_terminal(GramJobState state);

/// A site's reply to one request, after the client's retries: an `answer`,
/// a refusal with its reason, or neither when the site stayed silent.
template <typename T>
struct SiteReply {
  std::optional<T> answer = std::nullopt;
  std::optional<std::string> refused = std::nullopt;
};

/// What the client asks the site to run.
struct GramJobSpec {
  std::string executable;        // path on the client's GASS server
  /// Content checksum of the executable (0 = unknown). Non-zero values key
  /// the site's staging cache: identical jobs share one transfer, and a
  /// changed executable under the same path is detected and re-staged.
  std::uint64_t exe_checksum = 0;
  std::string output;            // path on the client's GASS server
  std::string gass_url;          // "host/service" of the client GASS server
  double runtime_seconds = 60;   // true compute demand
  double walltime_limit = 1e18;  // requested limit (site may cap further)
  int cpus = 1;
  std::uint64_t output_size = 1024;
  /// Real-time stdout streaming: while ACTIVE, the JobManager appends an
  /// output chunk to the client's GASS server at this period (0 = only
  /// stage the full file at completion). Streamed bytes carry sequence
  /// numbers, so after a crash of client or server the stream can be
  /// resent without duplication (§3.2).
  double stream_interval = 0.0;
  std::string tag;               // opaque client annotation

  void to_payload(sim::Payload& payload) const;
  static GramJobSpec from_payload(const sim::Payload& payload);
};

/// Service names.
inline constexpr const char* kGatekeeperService = "gram.gatekeeper";
inline std::string jobmanager_service(const std::string& contact) {
  return "gram.jm." + contact;
}

/// The GridManager tags grid submissions "job<id>" (spec_for); other
/// clients use free-form tags. Returns 0 when the tag names no job, which
/// trace consumers treat as "no job association".
inline std::uint64_t job_from_tag(const std::string& tag) {
  if (tag.rfind("job", 0) != 0) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = 3; i < tag.size(); ++i) {
    const char c = tag[i];
    if (c < '0' || c > '9') return 0;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return id;
}

}  // namespace condorg::gram
