// The node side of a glide-in (§5 of the paper): the GRAM job's payload,
// which starts Condor daemons on the remote node. One GlideInStarter per
// site lives on the site's cluster host and owns its Startds there; the
// GlideInManager on the submit host reaches it only by message:
//
//   glidein.start      manager -> starter when the glide-in's GRAM job goes
//                      ACTIVE: fetch the binaries (if a repository is set),
//                      then bring up the Startd.
//   glidein.exited     starter -> manager when that Startd shuts down (idle
//                      timeout, allocation end); the manager cancels the job.
//   startd.status_all  runner's ShadowMonitor -> starter: the starter is
//                      its node's responder (its Startds' ads name it), so
//                      one probe per interval covers every claim here.
//
// A node crash kills the daemons without a word, as it would real
// processes; the restarted starter answers MISSING for each of them, and
// the manager learns of it from the GRAM job's terminal callback.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "condorg/condor/startd.h"
#include "condorg/core/glidein.h"
#include "condorg/gass/client.h"
#include "condorg/sim/det.h"
#include "condorg/sim/lifetime.h"
#include "condorg/sim/network.h"
#include "condorg/sim/rpc.h"

namespace condorg::core {

class GlideInStarter {
 public:
  /// Runs on a site's compute side, next to the batch-allocated slots.
  CONDORG_HOST_LOCAL("site");

  static constexpr const char* kService = "glidein.starter";

  /// `manager` is where exit notices go.
  GlideInStarter(sim::Host& node, sim::Network& network, std::string site,
                 GlideInOptions options, sim::Address manager);
  ~GlideInStarter();

  GlideInStarter(const GlideInStarter&) = delete;
  GlideInStarter& operator=(const GlideInStarter&) = delete;

 private:
  /// One glide-in on this node, keyed by its GRAM contact.
  struct Glidein {
    std::unique_ptr<gass::FileClient> fetcher;  // binaries transfer, if any
    std::unique_ptr<condor::Startd> startd;
  };

  void install();
  void on_message(const sim::Message& message);
  void start(const std::string& contact, const std::string& slot,
             double expires_at);
  void launch(const std::string& contact, const std::string& slot,
              double expires_at);
  void on_exit(const std::string& contact);

  sim::Host& host_;
  sim::Network& network_;
  std::string site_;
  GlideInOptions options_;
  sim::Address manager_;
  sim::RpcClient rpc_;
  sim::Lifetime life_;
  det::HostLocal<std::map<std::string, Glidein>> glideins_;
  // Startd service -> the running Startd, for startd.status_all.
  det::HostLocal<std::map<std::string, const condor::Startd*>> startds_;
  int boot_id_ = 0;
  int crash_listener_ = 0;
};

}  // namespace condorg::core
