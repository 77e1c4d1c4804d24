// Resource discovery and scheduling strategies (§4.4 of the paper).
//
// Three brokering strategies, matching the paper's discussion:
//   * a user-supplied static list of GRAM servers ("a good starting
//     point"), served round-robin;
//   * a personal resource broker that queries MDS for resource ads, builds
//     ClassAds, and uses the Matchmaking framework to filter (job
//     Requirements vs. resource ad) and rank candidates; and
//   * random choice, as a baseline for the A3 ablation bench.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "condorg/classad/classad.h"
#include "condorg/core/gridmanager.h"
#include "condorg/mds/client.h"
#include "condorg/util/rng.h"

namespace condorg::core {

/// Round-robin over a fixed list of gatekeepers.
SiteChooser make_static_chooser(std::vector<sim::Address> gatekeepers);

/// Uniform-random choice over a fixed list (ablation baseline).
SiteChooser make_random_chooser(std::vector<sim::Address> gatekeepers,
                                util::Rng rng);

/// MDS + Matchmaking personal broker. Resource ads in the directory are
/// expected to carry a "GatekeeperHost" attribute naming the site front-end
/// plus whatever attributes jobs' Requirements/Rank reference (FreeCpus,
/// QueueLength, Arch, Memory...). The job side of the match is the job's
/// own ad (desc.ad) extended with Cpus/ImageSize defaults.
class MdsBroker {
 public:
  MdsBroker(sim::Host& host, sim::Network& network, sim::Address giis,
            std::string reply_service = "broker.mds");

  MdsBroker(const MdsBroker&) = delete;
  MdsBroker& operator=(const MdsBroker&) = delete;

  /// The SiteChooser interface for GridManager.
  SiteChooser chooser();

  std::uint64_t queries_sent() const { return queries_; }

 private:
  void choose(const Job& job,
              std::function<void(std::optional<sim::Address>)> done);
  void pick_from(const std::vector<mds::ResourceRecord>& records,
                 const classad::ClassAd& job_ad,
                 const std::function<void(std::optional<sim::Address>)>& done);
  /// The job side of the match, built (and its Requirements/Rank compiled)
  /// once per job id instead of once per pick_from. Retries and the async
  /// query path for the same job reuse the cached ad.
  std::shared_ptr<const classad::ClassAd> job_ad_for(const Job& job);

  sim::Host& host_;
  mds::MdsClient client_;
  sim::Address giis_;
  double cache_time_ = -1e18;
  std::vector<mds::ResourceRecord> cache_;
  std::uint64_t queries_ = 0;
  std::uint64_t job_ad_id_ = 0;  // job id the cached ad was built from
  std::shared_ptr<const classad::ClassAd> job_ad_;
};

/// Build the ClassAd used as the job side of broker matchmaking.
classad::ClassAd broker_job_ad(const Job& job);

}  // namespace condorg::core
