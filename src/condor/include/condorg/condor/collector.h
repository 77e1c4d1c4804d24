// Condor Collector: the pool's bulletin board.
//
// Every startd (including GlideIn daemons started on remote grid resources,
// §5 of the paper) periodically advertises a machine ClassAd here, and so
// does each PoolRunner for its pending job; the colocated Negotiator reads
// the ads in place during each matchmaking cycle. Advertised ads are soft
// state with a TTL, so daemons that die — or glide-ins whose site
// allocation expired — simply age out. In the agent's personal pool the
// VanillaRunner, on the same host, writes its idle jobs' ads in place
// instead (put_local): no message and no lease.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "condorg/classad/classad.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/util/metrics.h"

namespace condorg::condor {

class Collector {
 public:
  /// Personal-pool daemon on the submit host; live_ads(), put_local() and
  /// query() are same-host local APIs.
  CONDORG_HOST_LOCAL("user");

  static constexpr const char* kService = "condor.collector";

  /// Query results share ownership of the stored ads instead of deep-copying
  /// them: a 10k-slot pool hands the caller 10k refcount bumps, not 10k
  /// attribute-map clones. Ads are immutable once stored (re-advertising
  /// replaces the pointer), so the aliasing is safe.
  using AdPtr = std::shared_ptr<const classad::ClassAd>;

  Collector(sim::Host& host, sim::Network& network);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  sim::Address address() const { return {host_.name(), kService}; }

  /// All live ads (TTL not yet lapsed) in ad-name order, optionally
  /// filtered by a constraint evaluated against each ad.
  std::vector<AdPtr> query(const classad::ExprPtr& constraint = nullptr) const;

  /// Live ad count.
  std::size_t live_count() const;

  /// Remove an ad immediately (explicit invalidation on daemon shutdown).
  void invalidate(const std::string& name);

  /// Store `ad` under `name` from the same host: no message, no lease (it
  /// lives until invalidate() or a crash), not counted in ads_received().
  /// A content change like any other: it takes the next change sequence.
  void put_local(const std::string& name, AdPtr ad);

  std::uint64_t ads_received() const { return ads_received_; }

  // --- change sequence ---
  //
  // Every content change (new ad, changed ad, invalidation, TTL expiry)
  // bumps a monotone change sequence, and each live ad records the sequence
  // its content was stored at. The colocated PoolNegotiator reads the ads in
  // place each cycle and takes an ad whose sequence is past its last cycle's
  // as changed. A re-publish whose ad text is byte-identical to the stored
  // one only refreshes the TTL: no sequence bump (counted in
  // `collector_noop_updates`). A crash resets the sequence to 0.

  /// One live ad.
  struct Entry {
    AdPtr ad;
    std::uint64_t seq = 0;  // change_seq() when this content was stored
    sim::Time expires_at = 0;
    std::uint64_t checksum = 0;  // FNV-1a of the advertised ad text
  };

  /// Sequence number of the latest recorded change (0 = none yet).
  std::uint64_t change_seq() const { return *change_seq_; }

  /// Every live ad by name, after pruning the expired ones. Same-host read
  /// for the colocated PoolNegotiator: the entries stay as returned until
  /// the Collector next handles a message or an invalidate().
  const std::map<std::string, Entry>& live_ads() const;

  std::uint64_t noop_updates() const { return *noop_updates_; }

 private:
  // Lazily-deleted expiry heap node. An entry's live deadline always has a
  // matching node (advertise pushes one); nodes for superseded deadlines or
  // invalidated names are discarded when popped.
  struct Deadline {
    sim::Time when = 0;
    std::string name;
    bool after(const Deadline& other) const { return when > other.when; }
  };

  void install();
  void on_message(const sim::Message& message);
  /// Pop expired deadlines and erase entries whose TTL has lapsed. O(expired
  /// log n) instead of a full-pool scan per query.
  void prune() const;

  sim::Host& host_;
  sim::Network& network_;
  // `mutable` keeps prune()'s interior mutability; ordered map for query
  // determinism, lazily-deleted min-heap on `when`.
  mutable det::HostLocal<std::map<std::string, Entry>> entries_;
  mutable det::HostLocal<std::vector<Deadline>> expiry_heap_;
  mutable det::HostLocal<std::uint64_t> change_seq_;
  det::HostLocal<std::uint64_t> noop_updates_;
  util::Counter& noop_counter_;
  int boot_id_ = 0;
  int crash_listener_ = 0;
  std::uint64_t ads_received_ = 0;
};

}  // namespace condorg::condor
