// Dynamic check of the island cut against the protocol spec.
//
// The checked-in protocol spec (src/proto/protocols.json) is the one source
// of the island cut: each message type says whether it crosses between the
// user, site and central partitions. tools/analyze/condorg_proto.py binds
// every spec entry to its send sites and handler arms and exports the cut
// as proto_report.json's `cut_types`. This tool measures the same boundary
// *dynamically*: it arms sim::Profiler, runs one campaign that exercises
// every protocol leg (two-phase submission, staging, site probes, MyProxy
// refresh, MDS registration/query, and the rare recovery RPCs no healthy
// campaign emits — restart_jobmanager, update_gass, refresh_credential,
// cancel, the odd GASS verbs, grrp.unregister), then compares the message
// types observed crossing partitions in the profiler's traffic matrix with
// the spec's cut.
//
// The two sets must agree exactly:
//   * a type in the spec cut but never observed crossing means the scenario
//     or the spec has drifted from the code;
//   * a type observed crossing but not in the spec cut is protocol surface
//     the spec does not describe.
//
// Usage: condorg_profile_check <proto_report.json> [--dump profile.json]
// Exit:  0 = sets agree, 1 = mismatch (details on stderr), 2 = usage,
//        77 = report missing (ctest SKIP_RETURN_CODE).

#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/gass/client.h"
#include "condorg/gram/client.h"
#include "condorg/gsi/myproxy.h"
#include "condorg/sim/profiler.h"
#include "condorg/sim/rpc.h"
#include "condorg/util/json.h"
#include "condorg/workloads/grid_builder.h"

namespace core = condorg::core;
namespace cs = condorg::sim;
namespace cw = condorg::workloads;
namespace gsi = condorg::gsi;
namespace util = condorg::util;

namespace {

/// Strip the RPC reply suffix: the spec lists the cut by request type.
std::string base_type(const std::string& type) {
  const std::string suffix = ".reply";
  if (type.size() > suffix.size() &&
      type.compare(type.size() - suffix.size(), suffix.size(), suffix) == 0) {
    return type.substr(0, type.size() - suffix.size());
  }
  return type;
}

struct Observation {
  std::set<std::string> cross_partition;  // base types crossing the cut
  std::string profile_json;               // to_json(false).dump()
};

/// Run the all-protocol campaign with the profiler armed and return the
/// base message types observed between hosts of *different* partitions.
Observation run_scenario(std::vector<std::string>& problems) {
  cw::GridTestbed testbed(7);
  testbed.world().sim().profiler().set_enabled(true);

  cw::SiteSpec pbs;
  pbs.name = "pbs.anl.gov";
  pbs.kind = cw::SiteKind::kPbs;
  pbs.cpus = 8;
  cw::Site& site0 = testbed.add_site(pbs);
  cw::SiteSpec pool;
  pool.name = "pool.wisc.edu";
  pool.kind = cw::SiteKind::kCondorPool;
  pool.cpus = 8;
  cw::Site& site1 = testbed.add_site(pool);
  condorg::mds::GiisServer& giis = testbed.enable_mds("giis.grid.org");

  // Host -> partition, as the CONDORG_HOST_LOCAL annotations place the
  // daemons: the agent machine is "user", site front-ends and clusters are
  // "site", and the shared directory/credential services are "central".
  const std::map<std::string, std::string> partition_of = {
      {"submit.wisc.edu", "user"},         {"pbs.anl.gov", "site"},
      {"pbs.anl.gov.cluster", "site"},     {"pool.wisc.edu", "site"},
      {"pool.wisc.edu.cluster", "site"},   {"giis.grid.org", "central"},
      {"myproxy.ncsa.edu", "central"},
  };

  gsi::Pki pki(util::Rng(9));
  gsi::CertificateAuthority ca(pki, "/CN=CA");
  gsi::Credential user = ca.issue(pki, "/O=UW/CN=jfrey", 0.0, 30 * 86400.0);
  gsi::MyProxyServer myproxy(testbed.world().add_host("myproxy.ncsa.edu"),
                             testbed.world().net(), pki);
  cs::Host& submit = testbed.add_submit_host("submit.wisc.edu");
  {
    gsi::MyProxyClient boot(submit, testbed.world().net(),
                            "profile.myproxy.boot");
    boot.store(myproxy.address(), "jfrey", "pw",
               user.delegate(pki, 0.0, 7 * 86400.0), [](bool) {});
    testbed.world().sim().run_until(10.0);
  }

  // Short seed proxy + MyProxy auto-refresh so myproxy.get shows up once
  // the campaign outlives the refresh threshold.
  core::AgentOptions options;
  options.user = "jfrey";
  options.credentials.use_myproxy = true;
  options.credentials.myproxy_server = myproxy.address();
  options.credentials.myproxy_user = "jfrey";
  options.credentials.myproxy_passphrase = "pw";
  options.credentials.scan_interval = 300.0;
  options.credentials.refresh_threshold = 1800.0;
  options.credentials.refresh_lifetime = 3600.0;
  core::CondorGAgent agent(testbed.world(), "submit.wisc.edu", options);
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  // The glide-in leg: one vanilla job floods a glide-in onto the pool site,
  // and its GRAM job going ACTIVE sends glidein.start to the node. The
  // binaries fetch (from the agent's own GASS server) finds no bundle, so
  // no Startd comes up: its CONDOR traffic would cross the user <-> site
  // link, which the spec still files as off the cut.
  core::GlideInOptions glide;
  glide.binary_repository = agent.gridmanager().gass_address();
  glide.binary_path = "profile/no-such-bundle";
  core::GlideInManager& glideins = agent.enable_glideins(glide);
  glideins.add_site(core::GlideInSite{"pool.wisc.edu",
                                      site1.gatekeeper_address(),
                                      site1.cluster, 1, 1});
  agent.start();
  const gsi::Credential proxy =
      user.delegate(pki, testbed.world().now(), 3600.0);
  agent.credentials().set_credential(proxy);

  core::JobDescription desc;
  desc.universe = core::Universe::kGrid;
  desc.runtime_seconds = 300.0;
  desc.executable_size = 256 * 1024;
  desc.output_size = 2048;
  for (int i = 0; i < 4; ++i) agent.submit(desc);
  core::JobDescription vanilla;
  vanilla.universe = core::Universe::kVanilla;
  vanilla.runtime_seconds = 300.0;
  agent.submit(vanilla);
  desc.runtime_seconds = 8000.0;  // outlives the proxy refresh threshold
  const std::uint64_t long_id = agent.submit(desc);

  // Run until the long job holds a contact (the short jobs complete along
  // the way, exercising submit/commit/callback and both stagings).
  while (testbed.world().now() < 4000.0 &&
         agent.query(long_id)->gram_contact.empty()) {
    if (!testbed.world().sim().run_until(testbed.world().now() + 50.0)) break;
  }
  const std::string contact = agent.query(long_id)->gram_contact;
  if (contact.empty()) {
    problems.push_back("long job never obtained a GRAM contact");
    return {};
  }

  // The recovery/maintenance RPCs no healthy campaign sends: drive them
  // directly, exactly as the GridManager's recovery ladder would.
  condorg::gram::GramClient extra(submit, testbed.world().net(),
                                  "profile.check");
  extra.set_credential(proxy);
  extra.status_all(condorg::gram::gatekeeper_address_for(contact), {contact},
                   [](auto) {});
  extra.update_gass(contact, agent.gridmanager().gass_address(),
                    [](bool) {});
  extra.refresh_remote_credential(contact, [](bool) {});
  testbed.world().sim().run_until(testbed.world().now() + 120.0);
  extra.restart_jobmanager(contact, [](auto) {});
  testbed.world().sim().run_until(testbed.world().now() + 120.0);

  // GASS verbs the standard stage-in/stage-out path never uses, sent from
  // the site front-end to the agent's GASS server (the spec's site -> user
  // direction).
  condorg::gass::FileClient files(*site0.frontend, testbed.world().net(),
                                  "profile.gass");
  files.set_credential(proxy);
  const cs::Address gass = agent.gridmanager().gass_address();
  files.put(gass, "profile.out", "data", 4, [](bool) {});
  files.append(gass, "profile.log", "line\n", 5, [](bool) {}, 600.0,
               "profiler", 1);
  files.stat(gass, "profile.log", [](auto) {});
  files.get(gass, "profile.out", [](auto) {});
  files.pull(gass, "profile.pulled", gass, "profile.out", [](bool) {});

  // MDS queries (a personal broker's view) and the unregister leg.
  condorg::mds::MdsClient mds(submit, testbed.world().net(), "profile.mds");
  mds.query(giis.address(), "", [](auto) {});
  mds.lookup(giis.address(), "pbs.anl.gov", [](auto) {});
  cs::RpcClient grrp(*site0.frontend, testbed.world().net(), "profile.grrp");
  cs::Payload unreg;
  unreg.set("name", "pool.wisc.edu");
  grrp.call(giis.address(), "grrp.unregister", std::move(unreg), 30.0,
            [](cs::RpcOutcome, const cs::Payload&) {});
  // A node's exit notice, which only a glided-in Startd would send; the
  // manager has no live glide-in by this contact and drops it.
  cs::RpcClient node(*site1.cluster, testbed.world().net(), "profile.glidein");
  cs::Payload exited;
  exited.set("contact", "profile.none");
  node.notify(glideins.address(), "glidein.exited", std::move(exited));
  testbed.world().sim().run_until(testbed.world().now() + 300.0);

  // Hold the long job past the first credential scan that finds the seed
  // proxy under its refresh threshold (1800s left of 3600s), so the agent
  // fetches a fresh proxy from MyProxy and re-delegates it site-side.
  testbed.world().sim().run_until(2500.0);

  // Cancel tears down the long job's JobManager (jm.cancel crosses).
  extra.cancel(contact, [](bool) {});
  agent.remove(long_id);
  testbed.world().sim().run_until(testbed.world().now() + 600.0);

  Observation out;
  const cs::Profiler& profiler = testbed.world().sim().profiler();
  for (const auto& [key, cell] : profiler.messages()) {
    const auto& [from, to, daemon, type] = key;
    (void)daemon;
    (void)cell;
    const auto from_it = partition_of.find(from);
    const auto to_it = partition_of.find(to);
    if (from_it == partition_of.end() || to_it == partition_of.end()) {
      problems.push_back("host outside the partition map: " + from + " -> " +
                         to);
      continue;
    }
    if (from_it->second == to_it->second) continue;
    out.cross_partition.insert(base_type(type));
  }
  out.profile_json = profiler.to_json(false).dump();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: condorg_profile_check <proto_report.json>"
      " [--dump profile.json]\n";
  std::string report_path;
  std::string dump_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump" && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (report_path.empty()) {
      report_path = arg;
    } else {
      std::cerr << kUsage;
      return 2;
    }
  }
  if (report_path.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  std::ifstream in(report_path);
  if (!in) {
    std::cout << "SKIP: " << report_path
              << " not found (run the analyze.proto stage first)\n";
    return 77;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto report = util::JsonValue::parse(buffer.str());
  if (!report) {
    std::cerr << "FAIL: " << report_path << " is not valid JSON\n";
    return 1;
  }
  const util::JsonValue* cut_types = report->find("cut_types");
  if (cut_types == nullptr) {
    std::cerr << "FAIL: " << report_path << " has no cut_types\n";
    return 1;
  }
  std::set<std::string> spec;
  for (const util::JsonValue& type : cut_types->items()) {
    spec.insert(type.as_string());
  }

  std::vector<std::string> problems;
  const Observation observed = run_scenario(problems);
  for (const std::string& type : spec) {
    if (observed.cross_partition.count(type) == 0) {
      problems.push_back("in the spec cut but never observed crossing: " +
                         type);
    }
  }
  for (const std::string& type : observed.cross_partition) {
    if (spec.count(type) == 0) {
      problems.push_back("observed crossing but not in the spec cut: " +
                         type);
    }
  }

  if (!dump_path.empty() && !observed.profile_json.empty()) {
    std::ofstream out(dump_path);
    out << observed.profile_json << "\n";
  }

  std::cout << "spec cut types: " << spec.size()
            << ", observed cross-partition types: "
            << observed.cross_partition.size() << "\n";
  if (!problems.empty()) {
    for (const std::string& problem : problems) {
      std::cerr << "FAIL: " << problem << "\n";
    }
    return 1;
  }
  std::cout << "OK: spec cut == dynamic traffic matrix\n";
  return 0;
}
