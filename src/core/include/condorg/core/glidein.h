// The GlideIn mechanism (§5 of the paper).
//
// "the GlideIn mechanism uses Grid protocols to dynamically create a
// personal Condor pool out of Grid resources by gliding-in Condor daemons
// to the remote resource."
//
// For each site, the manager submits GRAM jobs whose payload is the glidein
// bootstrap (a portable script that fetches the Condor binaries from a
// central repository over GSI GridFTP). When the site's batch system
// actually starts the glidein (delayed binding!), the manager tells the
// site's node-side GlideInStarter (glidein_starter.h), which brings a
// Startd up on the compute side; it advertises to the user's personal
// Collector and the Negotiator then matches queued vanilla jobs to it.
// Daemons shut down after a configurable idle period and at allocation
// expiry, checkpointing and evicting any running job; the starter reports
// the exit and the manager cancels the GRAM job.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "condorg/core/schedd.h"
#include "condorg/gass/file_service.h"
#include "condorg/gram/client.h"
#include "condorg/sim/det.h"
#include "condorg/sim/host.h"
#include "condorg/sim/rpc.h"

namespace condorg::core {

class GlideInStarter;

/// A grid site glideins can be sent to. `cluster_host` is the compute-side
/// host glided-in startds run on (a different failure domain from the
/// front-end, as in the real system).
struct GlideInSite {
  std::string name;
  sim::Address gatekeeper;
  sim::Host* cluster_host = nullptr;
  int max_glideins = 8;
  int cpus_per_glidein = 1;
};

struct GlideInOptions {
  sim::Address collector;
  double walltime = 4 * 3600.0;      // site allocation per glidein
  double idle_timeout = 1800.0;      // "guarding against runaway daemons"
  double advertise_period = 300.0;
  double checkpoint_interval = 600.0;
  double tick_interval = 120.0;
  /// Glide-in slots on shared pools are preemptible: the node's owner (or
  /// a higher-priority pool user) reclaims it, evicting our job with a
  /// checkpoint, and releases it again later. 0 disables (dedicated
  /// nodes). Availability fraction = available / (available + reclaimed).
  double mean_slot_available_seconds = 0.0;
  double mean_slot_reclaimed_seconds = 0.0;
  /// Central repository holding the Condor binaries; when set, each glidein
  /// pulls them (GSI GridFTP) before its Startd starts advertising.
  /// det-local(binary_repository): configuration, copied and never mutated.
  std::optional<sim::Address> binary_repository;
  std::string binary_path = "condor/startd-bundle";
};

class GlideInManager {
 public:
  /// Runs on the submit host, next to the user's Schedd.
  CONDORG_HOST_LOCAL("user");

  GlideInManager(Schedd& schedd, sim::Network& network,
                 gass::FileService& gass, GlideInOptions options);
  ~GlideInManager();

  GlideInManager(const GlideInManager&) = delete;
  GlideInManager& operator=(const GlideInManager&) = delete;

  /// Where GRAM callbacks and the nodes' exit notices arrive.
  sim::Address address() const;

  /// Setup only: also builds the site's node-side GlideInStarter on its
  /// cluster host, which the manager reaches only by message from then on.
  void add_site(GlideInSite site);

  /// Credential used for glidein GRAM submissions.
  void set_credential_text(const std::string& serialized) {
    gram_.set_credential_text(serialized);
  }

  /// Start the provisioning loop: while idle vanilla jobs outnumber
  /// live+pending glideins, submit more (the paper's flooding strategy,
  /// bounded per site).
  void start();

  std::uint64_t glideins_submitted() const { return submitted_; }
  /// Glide-ins whose GRAM job went ACTIVE and whose node was told to start.
  std::uint64_t glideins_started() const { return launched_; }
  /// Started glide-ins released again: by their exit notice, or by the GRAM
  /// job's terminal callback when no notice came (node crash).
  std::uint64_t glideins_exited() const { return exited_; }
  std::size_t live_glideins() const { return live_; }
  std::size_t pending_glideins() const { return pending_; }

 private:
  struct SiteState {
    GlideInSite site;
    sim::Address starter;  // the site's node-side GlideInStarter
    int pending = 0;  // submitted, not yet ACTIVE
    int live = 0;     // started, not yet released
  };
  /// A submitted glide-in as the manager counts it: pending until its GRAM
  /// job goes ACTIVE, then live until released — by the node's exit notice
  /// or by the job's terminal callback, whichever comes first.
  enum class Phase { kPending, kLive, kReleased };
  struct Glidein {
    SiteState* site = nullptr;
    Phase phase = Phase::kPending;
  };

  void on_message(const sim::Message& message);
  void on_state(const std::string& contact, const std::string& state);
  void on_exited(const std::string& contact);
  /// Count a live glide-in as gone; false if it was not live.
  bool release(Glidein& glidein);
  void tick();
  void submit_glidein(SiteState& state);
  std::size_t demand() const;

  Schedd& schedd_;
  sim::Network& network_;
  sim::Host& host_;
  gass::FileService& gass_;
  GlideInOptions options_;
  gram::GramClient gram_;
  sim::RpcClient rpc_;
  // det-local(sites_): filled by add_site at setup; the per-site counters
  // are touched only from this host's own callbacks and ticks.
  std::vector<std::unique_ptr<SiteState>> sites_;
  // det-local(starters_): built by add_site and destroyed with the
  // manager, both outside any event; never touched in between.
  // lint-allow(cross-partition-ref): setup-time construction in add_site
  std::vector<std::unique_ptr<GlideInStarter>> starters_;
  det::HostLocal<std::map<std::string, Glidein>> glideins_;
  /// Callbacks that beat their submit-ack: contact -> state.
  det::HostLocal<std::map<std::string, std::string>> stashed_states_;
  bool started_ = false;
  std::size_t pending_ = 0;
  std::size_t live_ = 0;
  std::uint64_t glidein_counter_ = 0;
  std::uint64_t submitted_ = 0;
  std::uint64_t launched_ = 0;
  std::uint64_t exited_ = 0;
};

}  // namespace condorg::core
