// MDS-2 directory service (§3.3 of the paper).
//
// "A resource uses the Grid Resource Registration Protocol (GRRP) to notify
// other entities that it is part of the Grid. Those entities can then use
// the Grid Resource Information Protocol (GRIP) to obtain information about
// resource status."
//
// GiisServer is such an aggregate directory (a GIIS): resources register
// ClassAd descriptions with a TTL via GRRP and re-register periodically;
// entries whose TTL lapses disappear, so a crashed site silently ages out —
// the staleness semantics brokers must cope with. GRIP queries evaluate a
// ClassAd constraint against every live entry.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "condorg/classad/classad.h"
#include "condorg/gsi/auth.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"

namespace condorg::mds {

class GiisServer {
 public:
  CONDORG_HOST_LOCAL("central");

  static constexpr const char* kService = "mds.giis";

  GiisServer(sim::Host& host, sim::Network& network,
             gsi::AuthConfig auth = {});
  ~GiisServer();

  GiisServer(const GiisServer&) = delete;
  GiisServer& operator=(const GiisServer&) = delete;

  sim::Address address() const { return {host_.name(), kService}; }

  /// Registered entries that have not expired at `now`.
  std::size_t live_count() const;

  std::uint64_t queries() const { return queries_; }
  std::uint64_t auth_failures() const { return auth_failures_; }

 private:
  struct Entry {
    std::string ad_text;
    sim::Time expires_at = 0;
  };

  void install();
  void on_message(const sim::Message& message);
  void prune();

  sim::Host& host_;
  sim::Network& network_;
  gsi::AuthConfig auth_;
  det::HostLocal<std::map<std::string, Entry>> entries_;  // by name
  int boot_id_ = 0;
  int crash_listener_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t auth_failures_ = 0;
};

}  // namespace condorg::mds
