// Per-site staging cache for GASS-fetched artifacts (§4 of the paper:
// "files are cached at the execution site so repeated jobs do not
// re-transfer them").
//
// One instance per site front-end (owned by the Gatekeeper). JobManagers
// staging a content-addressed executable go through fetch():
//   * a cached artifact with the expected checksum is served immediately
//     with zero network traffic (hit);
//   * concurrent fetches of one in-flight artifact coalesce onto a waiter
//     list behind a single transfer — N identical jobs landing at once cost
//     one GASS get;
//   * a cached artifact whose checksum does not match the caller's
//     expectation is invalidated and re-fetched (the executable content
//     changed under the same path).
// The cache models site scratch space: it does not survive host crashes
// (the Gatekeeper rebuilds an empty one on boot).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "condorg/gass/client.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/util/metrics.h"

namespace condorg::gass {

class StagingCache {
 public:
  /// Site front-end scratch space, owned by the Gatekeeper. Waiter
  /// callbacks (JobManager stage-in continuations) run on the same host.
  CONDORG_HOST_LOCAL("site");

  /// `reply_service` names the FileClient's reply endpoint on `host` and
  /// must be unique per cache instance.
  StagingCache(sim::Host& host, sim::Network& network,
               const std::string& reply_service);

  StagingCache(const StagingCache&) = delete;
  StagingCache& operator=(const StagingCache&) = delete;

  /// Receives the cached entry itself (null on a failed transfer): every
  /// waiter of one transfer and every later hit share one FileInfo, which
  /// stays intact for its holders even after the entry is invalidated.
  using FetchCallback = std::function<void(std::shared_ptr<const FileInfo>)>;

  /// Fetch `path` from `server`, serving from cache when possible.
  /// `expected_checksum` != 0 pins the content identity: a cached or
  /// arriving artifact with a different checksum is treated as stale and
  /// re-fetched once. 0 accepts whatever the server holds.
  void fetch(const sim::Address& server, const std::string& path,
             std::uint64_t expected_checksum, FetchCallback done,
             double timeout = 600.0);

  // --- statistics ---
  /// Served without starting a transfer (cached, or coalesced onto an
  /// in-flight one).
  std::uint64_t hits() const { return hits_; }
  /// Transfers started.
  std::uint64_t misses() const { return misses_; }
  std::size_t entry_count() const { return entries_->size(); }

 private:
  struct Entry {
    std::shared_ptr<const FileInfo> info;
    bool in_flight = false;
    std::uint64_t expected_checksum = 0;  // of the in-flight transfer
    // det-local(waiters): Entry values live inside the HostLocal
    // entries_ map; every access already passes its ownership check.
    std::vector<FetchCallback> waiters;
  };

  void start_transfer(const sim::Address& server, const std::string& path,
                      double timeout);

  sim::Host& host_;
  FileClient client_;
  det::HostLocal<std::map<std::string, Entry>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  util::Counter& hits_counter_;
  util::Counter& misses_counter_;
};

}  // namespace condorg::gass
