// Bundles a Simulation, a Network, and the set of Hosts — one World per
// experiment. Owns all hosts; services and agents hold references.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "condorg/sim/host.h"
#include "condorg/sim/network.h"
#include "condorg/sim/simulation.h"

namespace condorg::sim {

class World {
 public:
  explicit World(std::uint64_t seed = 1);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Forces the island worker count for Worlds constructed while the guard
  /// lives, overriding CONDORG_PARALLEL (0 means one worker, like unset).
  /// Benches and tests use it to compare worker counts in one process;
  /// the count never changes the committed stream. Guards nest (inner
  /// wins; destruction restores the outer value).
  class ScopedParallelOverride {
   public:
    explicit ScopedParallelOverride(int threads);
    ~ScopedParallelOverride();
    ScopedParallelOverride(const ScopedParallelOverride&) = delete;
    ScopedParallelOverride& operator=(const ScopedParallelOverride&) = delete;

   private:
    int previous_;
  };

  Simulation& sim() { return sim_; }
  Network& net() { return net_; }
  Time now() const { return sim_.now(); }

  /// Create a host; names must be unique.
  Host& add_host(const std::string& name);

  /// Look up a host by name; nullptr if unknown.
  Host* find_host(const std::string& name);

  /// Look up a host that must exist.
  Host& host(const std::string& name);

  std::vector<std::string> host_names() const;
  std::size_t host_count() const { return hosts_.size(); }

 private:
  Simulation sim_;
  // Ordered by name so host_names() — which seeds brokers and experiment
  // loops — enumerates identically on every run.
  std::map<std::string, std::unique_ptr<Host>> hosts_;
  Network net_;
};

}  // namespace condorg::sim
