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
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
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
  /// Selects negotiable machine ads among the Collector's.
  static constexpr const char* kSlotConstraint = "State == \"Unclaimed\"";

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

  /// What an ad is to the negotiator, decided when its content is stored
  /// (collector.advertise with new content, or put_local); a
  /// content-identical refresh keeps the verdict.
  enum class Kind : std::uint8_t {
    kJob,    // carries JobUniverse; `Entry::user` names its owner
    kSlot,   // any other ad that passes kSlotConstraint: negotiable
    kOther,  // any other ad that does not (claimed, or no State)
  };

  /// One live ad.
  struct Entry {
    AdPtr ad;
    std::uint64_t seq = 0;  // change_seq() when this content was stored
    sim::Time expires_at = 0;
    std::uint64_t checksum = 0;  // FNV-1a of the advertised ad text
    Kind kind = Kind::kOther;
    std::uint32_t user = 0;  // kJob: user id of its `User` ("unknown")
    // When this name's one expiry-heap node fires (<= expires_at; infinite
    // for none). A refresh moves only expires_at, and the node re-queues
    // itself at the new deadline when it fires.
    sim::Time queued_at = std::numeric_limits<sim::Time>::infinity();
  };

  /// Sequence number of the latest recorded change (0 = none yet).
  std::uint64_t change_seq() const { return *change_seq_; }

  /// Every live ad by name, after pruning the expired ones. Same-host read
  /// for the colocated PoolNegotiator: the entries stay as returned until
  /// the Collector next handles a message or an invalidate().
  const std::map<std::string, Entry>& live_ads() const;

  std::uint64_t noop_updates() const { return *noop_updates_; }

  /// The user dictionary: every job ad's user gets a dense id, in the order
  /// the Collector first stored one of its ads. Append-only, and it
  /// survives a crash, so ids stay valid for the colocated negotiator's
  /// fair-share rows.
  std::size_t user_count() const { return user_names_->size(); }
  const std::string& user_name(std::uint32_t id) const {
    return (*user_names_)[id];
  }

  /// kSlotConstraint, parsed once.
  const classad::ExprPtr& slot_constraint() const { return slot_constraint_; }

 private:
  // Expiry heap node, one per live name at its entry's queued_at. Nodes of
  // invalidated names, or superseded by an earlier deadline, are discarded
  // when popped.
  struct Deadline {
    sim::Time when = 0;
    std::string name;
    bool after(const Deadline& other) const { return when > other.when; }
  };

  void install();
  void on_message(const sim::Message& message);
  /// Set `entry`'s kind (and user) from its ad.
  void classify(Entry& entry);
  void push_deadline(sim::Time when, const std::string& name) const;
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
  det::HostLocal<std::vector<std::string>> user_names_;
  det::HostLocal<std::unordered_map<std::string, std::uint32_t>> user_ids_;
  const classad::ExprPtr slot_constraint_;
  util::Counter& noop_counter_;
  int boot_id_ = 0;
  int crash_listener_ = 0;
  std::uint64_t ads_received_ = 0;
};

}  // namespace condorg::condor
