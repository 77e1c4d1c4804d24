// Resource information provider: the site-side half of GRRP.
//
// Each site front-end runs an InfoProvider that periodically snapshots its
// resource state (via a user-supplied callback, typically wired to the local
// scheduler) and re-registers the resulting ClassAd with one or more GIIS
// directories. Registration TTL is a multiple of the period, so a site that
// crashes or is partitioned ages out of the directory after a bounded delay.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "condorg/classad/classad.h"
#include "condorg/gsi/credential.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"

namespace condorg::mds {

struct ProviderOptions {
  double period_seconds = 60.0;
};

class InfoProvider {
 public:
  CONDORG_HOST_LOCAL("site");

  using Snapshot = std::function<classad::ClassAd()>;
  using Options = ProviderOptions;

  /// `resource_name` keys the directory entry; `snapshot` builds the ad.
  InfoProvider(sim::Host& host, sim::Network& network,
               std::string resource_name, Snapshot snapshot,
               Options options = {});
  ~InfoProvider();

  InfoProvider(const InfoProvider&) = delete;
  InfoProvider& operator=(const InfoProvider&) = delete;

  /// Register with a directory (can be called for several GIISes).
  void add_directory(const sim::Address& giis);

  /// Attach a credential for authenticated directories.
  void set_credential(const gsi::Credential& credential) {
    credential_ = credential.serialize();
  }

  /// Begin the periodic registration loop (also restarts after host
  /// reboot via a boot function).
  void start();

  /// Stop the loop and send a courtesy grrp.unregister to every directory
  /// so the entry disappears immediately; if the unregister is lost, TTL
  /// expiry still removes it after a bounded delay.
  void stop();

 private:
  void tick();

  sim::Host& host_;
  sim::RpcClient rpc_;
  std::string name_;
  Snapshot snapshot_;
  Options options_;
  // det-local(directories_): target GIIS addresses, fixed at attach time
  // and only read from this host's periodic tick events.
  std::vector<sim::Address> directories_;
  std::string credential_;
  bool started_ = false;
  int boot_id_ = 0;
};

}  // namespace condorg::mds
