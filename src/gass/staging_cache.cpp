#include "condorg/gass/staging_cache.h"

#include <utility>

namespace condorg::gass {

StagingCache::StagingCache(sim::Host& host, sim::Network& network,
                           const std::string& reply_service)
    : host_(host),
      client_(host, network, reply_service),
      entries_(host, "stagecache.entries"),
      hits_counter_(host.metrics().counter("staging_cache_hits",
                                           {{"site", host.name()}})),
      misses_counter_(host.metrics().counter("staging_cache_misses",
                                             {{"site", host.name()}})) {}

void StagingCache::fetch(const sim::Address& server, const std::string& path,
                         std::uint64_t expected_checksum, FetchCallback done,
                         double timeout) {
  auto it = entries_->find(path);
  if (it != entries_->end() && !it->second.in_flight) {
    if (expected_checksum == 0 ||
        it->second.info->checksum == expected_checksum) {
      ++hits_;
      hits_counter_.inc();
      done(it->second.info);
      return;
    }
    // The executable content changed under this path: invalidate and fall
    // through to a fresh transfer.
    entries_->erase(it);
    it = entries_->end();
  }
  if (it != entries_->end()) {
    // A transfer for this path is already in flight: coalesce. If the
    // caller expects different content than the in-flight transfer was
    // started for, the checksum check on arrival sorts it out (the waiter
    // is handed whatever arrives; a mismatched expectation re-fetches via
    // the invalidation path above on its retry).
    ++hits_;
    hits_counter_.inc();
    it->second.waiters.push_back(std::move(done));
    return;
  }
  Entry& entry = (*entries_)[path];
  entry.in_flight = true;
  entry.expected_checksum = expected_checksum;
  entry.waiters.push_back(std::move(done));
  ++misses_;
  misses_counter_.inc();
  start_transfer(server, path, timeout);
}

void StagingCache::start_transfer(const sim::Address& server,
                                  const std::string& path, double timeout) {
  client_.get(
      server, path,
      [this, path](std::optional<FileInfo> file) {
        const auto it = entries_->find(path);
        if (it == entries_->end()) return;  // invalidated while in flight
        // Take the waiters before invoking any: a callback may re-enter
        // fetch() for the same path.
        std::vector<FetchCallback> waiters = std::move(it->second.waiters);
        it->second.waiters.clear();
        if (!file) {
          // Failed transfer: nothing to cache; every waiter retries through
          // its own ladder (JobManager::stage_in backs off and re-fetches).
          entries_->erase(it);
          for (auto& waiter : waiters) waiter(nullptr);
          return;
        }
        it->second.info = std::make_shared<const FileInfo>(std::move(*file));
        it->second.in_flight = false;
        // Hold a reference across the loop: a waiter may invalidate the
        // entry (fetch with a different expected checksum), which erases
        // the cache's reference but not the FileInfo the rest still share.
        const std::shared_ptr<const FileInfo> info = it->second.info;
        for (auto& waiter : waiters) waiter(info);
      },
      timeout);
}

}  // namespace condorg::gass
