#include "condorg/workloads/grid_builder.h"

#include "condorg/batch/fair_share_scheduler.h"
#include "condorg/batch/fifo_scheduler.h"

namespace condorg::workloads {

GridTestbed::GridTestbed(std::uint64_t seed) : world_(seed) {}

sim::Host& GridTestbed::add_submit_host(const std::string& name) {
  return world_.add_host(name);
}

Site& GridTestbed::add_site(SiteSpec spec) {
  auto site = std::make_unique<Site>();
  site->spec = spec;
  site->frontend = &world_.add_host(spec.name);
  site->cluster = &world_.add_host(spec.name + ".cluster");

  switch (spec.kind) {
    case SiteKind::kPbs:
    case SiteKind::kCondorPool:
      // The Condor-pool *batch interface* behaves like a FIFO queue from
      // GRAM's point of view; pool semantics (eviction, matchmaking) enter
      // through glide-ins, which run their own startds.
      site->scheduler = std::make_unique<batch::FifoScheduler>(
          world_.sim(), spec.name, spec.cpus);
      break;
    case SiteKind::kLsf:
      site->scheduler = std::make_unique<batch::FairShareScheduler>(
          world_.sim(), spec.name, spec.cpus);
      break;
  }

  spec.gatekeeper.max_walltime = spec.max_walltime;
  site->gatekeeper = std::make_unique<gram::Gatekeeper>(
      *site->frontend, world_.net(), *site->scheduler, spec.gatekeeper);

  if (spec.background_load) {
    site->background = std::make_unique<batch::BackgroundLoad>(
        world_.sim(), *site->scheduler, spec.background,
        world_.sim().make_rng("bg." + spec.name));
    // Local users submit at the site: run the arrival chain on the
    // front-end's queue, where the JobManagers drive the same scheduler (a
    // JobManager cancel must be able to cancel a job's completion event).
    batch::BackgroundLoad* load = site->background.get();
    site->frontend->post_any_epoch(0.0, [load] { load->start(); });
  }

  sites_.push_back(std::move(site));
  Site& ref = *sites_.back();
  if (giis_) attach_provider(ref);
  return ref;
}

mds::GiisServer& GridTestbed::enable_mds(const std::string& host_name,
                                         double period_seconds) {
  if (!giis_) {
    mds_period_ = period_seconds;
    giis_ = std::make_unique<mds::GiisServer>(world_.add_host(host_name),
                                              world_.net());
    for (auto& site : sites_) attach_provider(*site);
  }
  return *giis_;
}

void GridTestbed::attach_provider(Site& site) {
  if (site.provider) return;
  mds::ProviderOptions options;
  options.period_seconds = mds_period_;
  batch::LocalScheduler* scheduler = site.scheduler.get();
  const std::string name = site.spec.name;
  const double max_walltime = site.spec.max_walltime;
  site.provider = std::make_unique<mds::InfoProvider>(
      *site.frontend, world_.net(), name,
      [scheduler, name, max_walltime] {
        classad::ClassAd ad;
        ad.insert_string("Name", name);
        ad.insert_string("GatekeeperHost", name);
        ad.insert_string("Arch", "X86_64");
        ad.insert_int("Cpus", scheduler->total_cpus());
        ad.insert_int("FreeCpus", scheduler->free_cpus());
        ad.insert_int("QueueLength",
                      static_cast<std::int64_t>(scheduler->queue_length()));
        ad.insert_real("MaxWalltime", max_walltime);
        return ad;
      },
      options);
  site.provider->add_directory(giis_->address());
  site.provider->start();
}

std::vector<sim::Address> GridTestbed::gatekeepers() const {
  std::vector<sim::Address> out;
  out.reserve(sites_.size());
  for (const auto& site : sites_) out.push_back(site->gatekeeper_address());
  return out;
}

int GridTestbed::total_cpus() const {
  int total = 0;
  for (const auto& site : sites_) total += site->spec.cpus;
  return total;
}

}  // namespace condorg::workloads
