// GlideIn (§5): dynamically build a personal Condor pool out of three grid
// sites, run checkpointable vanilla jobs on it, watch one site's allocation
// expire mid-job (eviction + checkpoint + migration), and watch idle
// daemons shut themselves down afterwards.
#include <cstdio>

#include "condorg/core/agent.h"
#include "condorg/gass/file_service.h"
#include "condorg/sim/det.h"
#include "condorg/util/strings.h"
#include "condorg/workloads/grid_builder.h"

namespace core = condorg::core;
namespace cw = condorg::workloads;

int main() {
  cw::GridTestbed testbed(99);
  for (const char* name :
       {"pbs.anl.gov", "lsf.ncsa.edu", "condor.wisc.edu"}) {
    cw::SiteSpec spec;
    spec.name = name;
    spec.cpus = 12;
    testbed.add_site(spec);
  }
  testbed.add_submit_host("desktop.wisc.edu");

  // Central repository with the glidein binaries (fetched over GridFTP by
  // the bootstrap script, as in the paper).
  condorg::gass::FileService repo(testbed.world().add_host("repo.wisc.edu"),
                                  testbed.world().net(), "gridftp");
  repo.store().put("condor/startd-bundle", "CONDOR-BINARIES", 25 << 20);

  core::CondorGAgent agent(testbed.world(), "desktop.wisc.edu");
  core::GlideInOptions options;
  options.walltime = 2 * 3600.0;   // short allocations: expect migrations
  options.idle_timeout = 1200.0;
  options.checkpoint_interval = 300.0;
  options.tick_interval = 120.0;
  options.binary_repository = repo.address();
  auto& glideins = agent.enable_glideins(options);
  for (std::size_t i = 0; i < testbed.sites().size(); ++i) {
    glideins.add_site(core::GlideInSite{testbed.site(i).spec.name,
                                        testbed.site(i).gatekeeper_address(),
                                        testbed.site(i).cluster, 6, 1});
  }
  agent.start();

  // 30 checkpointable jobs of ~100 minutes: longer than one allocation
  // minus startup, so several must migrate with their checkpoints.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 30; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kVanilla;
    job.runtime_seconds = 6000.0;
    ids.push_back(agent.submit(job));
  }

  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 4 * 86400.0) {
    testbed.world().sim().run_until(testbed.world().now() + 600.0);
  }
  int completed = 0;
  for (const auto id : ids) {
    if (agent.query(id)->status == core::JobStatus::kCompleted) ++completed;
  }

  // Let idle daemons drain.
  testbed.world().sim().run_until(testbed.world().now() + 4 * 3600.0);

  std::printf("glide-ins: %llu submitted, %llu started, %llu exited, %zu "
              "still alive\n",
              static_cast<unsigned long long>(glideins.glideins_submitted()),
              static_cast<unsigned long long>(glideins.glideins_started()),
              static_cast<unsigned long long>(glideins.glideins_exited()),
              glideins.live_glideins());
  std::printf("binary fetches from repository: %llu\n",
              static_cast<unsigned long long>(repo.gets_served()));
  std::printf("jobs completed: %d/%zu\n", completed, ids.size());
  std::printf("evictions survived (jobs resumed from checkpoints): %zu\n",
              agent.log().count(core::LogEventKind::kEvicted));
  std::printf("total wall time: %s\n",
              condorg::util::format_duration(testbed.world().now()).c_str());
  // Determinism sanitizer (CONDORG_DETSAN=1): the manager, the node-side
  // starters and their Startds must touch only their own host's state.
  if (condorg::det::report("glidein_pool") > 0) return 4;
  return completed == static_cast<int>(ids.size()) &&
                 glideins.live_glideins() == 0
             ? 0
             : 1;
}
