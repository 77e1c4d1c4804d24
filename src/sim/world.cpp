#include "condorg/sim/world.h"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "condorg/sim/det.h"
#include "condorg/sim/island.h"

namespace condorg::sim {
namespace {
// Process-wide override installed by ScopedParallelOverride (-1 = none).
// Read once per World construction, always from scenario-setup code, so a
// plain int with no synchronization is enough.
// lint-allow(mutable-global): scoped override knob, set/read at setup time
int g_parallel_override = -1;

unsigned parallel_from_env() {
  const char* value = std::getenv("CONDORG_PARALLEL");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const unsigned long n = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0') return 0;
  return static_cast<unsigned>(n > 64 ? 64 : n);
}
}  // namespace

World::ScopedParallelOverride::ScopedParallelOverride(int threads)
    : previous_(g_parallel_override) {
  g_parallel_override = threads;
}

World::ScopedParallelOverride::~ScopedParallelOverride() {
  g_parallel_override = previous_;
}

World::World(std::uint64_t seed)
    : sim_(seed),
      net_(sim_, [this](const std::string& name) { return find_host(name); }) {
  // Every binary that builds a World honors CONDORG_DETSAN=1 at runtime,
  // and CONDORG_PROFILE=1 arms the kernel profiler the same way.
  det::arm_from_env();
  const char* profile = std::getenv("CONDORG_PROFILE");
  if (profile != nullptr && *profile != '\0' &&
      std::string_view(profile) != "0") {
    sim_.profiler().set_enabled(true);
  }
  // CONDORG_PARALLEL=N gives the island kernel an N-thread window budget;
  // unset or 0 means one thread, which runs the same windowed executor
  // inline — the digest is identical for every N, so 1 is the cheap way to
  // cross-check a parallel run. ScopedParallelOverride wins over the
  // environment.
  sim_.configure_islands(g_parallel_override >= 0
                             ? static_cast<unsigned>(g_parallel_override)
                             : parallel_from_env());
  // Rebuilt (at a synchronization point) whenever hosts or links change:
  // group hosts connected by zero-lookahead links, bound the lookahead by
  // the fastest cross-island link.
  sim_.set_island_plan_hook([this] {
    std::vector<std::string> names;
    std::vector<std::uint32_t> queues;
    names.reserve(hosts_.size());
    queues.reserve(hosts_.size());
    for (const auto& [name, host] : hosts_) {
      names.push_back(name);
      queues.push_back(host->queue());
    }
    return IslandPlanner::build(net_, queues, names);
  });
  net_.set_topology_listener([this] { sim_.notify_topology_changed(); });
}

Host& World::add_host(const std::string& name) {
  auto [it, inserted] = hosts_.emplace(
      name, std::make_unique<Host>(sim_, name, sim_.register_queue()));
  if (!inserted) {
    throw std::invalid_argument("duplicate host name: " + name);
  }
  return *it->second;
}

Host* World::find_host(const std::string& name) {
  const auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.get();
}

Host& World::host(const std::string& name) {
  Host* h = find_host(name);
  if (h == nullptr) throw std::invalid_argument("unknown host: " + name);
  return *h;
}

std::vector<std::string> World::host_names() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const auto& [name, host] : hosts_) names.push_back(name);
  return names;
}

}  // namespace condorg::sim
