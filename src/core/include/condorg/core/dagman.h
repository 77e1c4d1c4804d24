// DAGMan: dependency-driven job management.
//
// The CMS experience (§6) is "a two-node Directed Acyclic Graph (DAG) of
// jobs" whose first node fans out into 100 simulation jobs, with transfer
// and reconstruction stages gated on completion. DagMan submits a node's
// job once all its parents completed, runs optional PRE/POST hooks, retries
// failed nodes, and can throttle the number of jobs in flight (the disk-
// buffer guard of the CMS DAG).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "condorg/core/schedd.h"

namespace condorg::core {

struct DagNode {
  std::string name;
  JobDescription job;
  /// PRE runs just before submission; POST just after successful
  /// completion. Either may be null.
  std::function<void()> pre;
  std::function<void()> post;
  int max_retries = 3;
};

class Dag {
 public:
  void add_node(DagNode node);
  /// child waits for parent. Both must already exist.
  void add_edge(const std::string& parent, const std::string& child);

  const std::vector<DagNode>& nodes() const { return nodes_; }
  const std::multimap<std::string, std::string>& edges() const {
    return edges_;
  }
  bool has_node(const std::string& name) const;

 private:
  std::vector<DagNode> nodes_;
  std::multimap<std::string, std::string> edges_;  // parent -> child
};

struct DagManOptions {
  /// Max node jobs submitted-but-not-finished at once; 0 = unlimited.
  std::size_t max_jobs_in_flight = 0;
};

class DagMan {
 public:
  enum class NodeState { kWaiting, kReady, kSubmitted, kDone, kFailed };

  DagMan(Schedd& schedd, Dag dag, DagManOptions options = {});

  DagMan(const DagMan&) = delete;
  DagMan& operator=(const DagMan&) = delete;

  /// Validates the DAG (throws std::invalid_argument on cycles or unknown
  /// edge endpoints) and submits all ready roots.
  void start();

  bool complete() const;  // every node done
  bool failed() const;    // some node exhausted its retries
  NodeState node_state(const std::string& name) const;
  std::optional<std::uint64_t> node_job(const std::string& name) const;

  std::size_t nodes_done() const;

  /// Invoked once when the DAG completes or fails.
  void on_finished(std::function<void(bool success)> callback) {
    finished_callback_ = std::move(callback);
  }

 private:
  struct Node {
    DagNode spec;
    NodeState state = NodeState::kWaiting;
    std::uint64_t job_id = 0;
    int attempts = 0;
    std::vector<std::size_t> parents;
    std::vector<std::size_t> children;
  };

  void validate() const;
  void pump();
  void submit_node(std::size_t index);
  void on_queue_event(const Job& job);
  void finish(bool success);

  Schedd& schedd_;
  DagManOptions options_;
  std::vector<Node> nodes_;
  std::map<std::string, std::size_t> by_name_;
  std::map<std::uint64_t, std::size_t> by_job_;
  std::size_t in_flight_ = 0;
  bool started_ = false;
  bool finished_ = false;
  std::function<void(bool)> finished_callback_;
};

}  // namespace condorg::core
