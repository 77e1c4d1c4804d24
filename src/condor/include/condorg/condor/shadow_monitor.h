// The liveness loop over one runner's Shadows (§5's personal pool, §4.2's
// probing). Each activated Shadow is watched under its execute host's
// responder: the one daemon per host that answers for every claim there
// (the GlideInStarter for the Startds it owns, a standalone Startd for
// itself; the slot ad's Responder names it). Each poll_interval that
// responder gets one startd.status_all naming the Startd of every claim
// watched there, and each Shadow is handed its line of the reply, or
// silence; a silent responder is probed again after poll_interval too. What
// each answer means (the missed-poll ladder) stays with the Shadow.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "condorg/condor/shadow.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/sim/probe_loop.h"
#include "condorg/sim/rpc.h"

namespace condorg::condor {

class ShadowMonitor {
 public:
  /// Runs on the submit host, next to the runner and its Shadows.
  CONDORG_HOST_LOCAL("user");

  ShadowMonitor(sim::Host& host, sim::Network& network,
                ShadowOptions options);

  ShadowMonitor(const ShadowMonitor&) = delete;
  ShadowMonitor& operator=(const ShadowMonitor&) = delete;

 private:
  friend class Shadow;

  /// Watch an activated Shadow until it finishes or is destroyed.
  void watch(Shadow& shadow);
  void forget(Shadow& shadow);
  /// The Startd a still-pending Shadow's probe line asks about.
  std::optional<std::string> startd_of(const std::string& responder,
                                       std::uint64_t key) const;
  void probe(const std::string& responder, std::vector<std::uint64_t> keys,
             std::vector<std::string> startds,
             sim::ProbeLoop::Answered answered);

  sim::Host& host_;
  sim::Network& network_;
  ShadowOptions options_;
  sim::RpcClient rpc_;
  det::HostLocal<std::map<std::uint64_t, Shadow*>> shadows_;
  std::uint64_t next_key_ = 0;
  sim::ProbeLoop loop_;
};

}  // namespace condorg::condor
