#include "condorg/core/dagman.h"

#include <stdexcept>

namespace condorg::core {

void Dag::add_node(DagNode node) {
  if (has_node(node.name)) {
    throw std::invalid_argument("duplicate DAG node: " + node.name);
  }
  nodes_.push_back(std::move(node));
}

void Dag::add_edge(const std::string& parent, const std::string& child) {
  if (!has_node(parent) || !has_node(child)) {
    throw std::invalid_argument("edge references unknown node: " + parent +
                                " -> " + child);
  }
  edges_.emplace(parent, child);
}

bool Dag::has_node(const std::string& name) const {
  for (const DagNode& node : nodes_) {
    if (node.name == name) return true;
  }
  return false;
}

DagMan::DagMan(Schedd& schedd, Dag dag, DagManOptions options)
    : schedd_(schedd), options_(options) {
  for (const DagNode& spec : dag.nodes()) {
    by_name_[spec.name] = nodes_.size();
    nodes_.push_back(Node{spec, NodeState::kWaiting, 0, 0, {}, {}});
  }
  for (const auto& [parent, child] : dag.edges()) {
    const std::size_t p = by_name_.at(parent);
    const std::size_t c = by_name_.at(child);
    nodes_[c].parents.push_back(p);
    nodes_[p].children.push_back(c);
  }
  schedd_.add_queue_listener([this](const Job& job) { on_queue_event(job); });
}

void DagMan::validate() const {
  // Kahn's algorithm: every node must be reachable with in-degrees
  // draining to zero, else there is a cycle.
  std::vector<std::size_t> indegree(nodes_.size(), 0);
  for (const Node& node : nodes_) {
    for (const std::size_t child : node.children) ++indegree[child];
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const std::size_t current = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const std::size_t child : nodes_[current].children) {
      if (--indegree[child] == 0) frontier.push_back(child);
    }
  }
  if (visited != nodes_.size()) {
    throw std::invalid_argument("DAG contains a cycle");
  }
}

void DagMan::start() {
  if (started_) return;
  validate();
  started_ = true;
  for (Node& node : nodes_) {
    if (node.parents.empty()) node.state = NodeState::kReady;
  }
  pump();
}

void DagMan::pump() {
  if (finished_) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].state != NodeState::kReady) continue;
    if (options_.max_jobs_in_flight &&
        in_flight_ >= options_.max_jobs_in_flight) {
      return;  // throttled (the CMS disk-buffer guard)
    }
    submit_node(i);
  }
  if (complete()) finish(true);
}

void DagMan::submit_node(std::size_t index) {
  Node& node = nodes_[index];
  if (node.spec.pre) node.spec.pre();
  node.state = NodeState::kSubmitted;
  ++node.attempts;
  ++in_flight_;
  node.job_id = schedd_.submit(node.spec.job);
  by_job_[node.job_id] = index;
}

void DagMan::on_queue_event(const Job& job) {
  if (!started_ || finished_) return;
  const auto it = by_job_.find(job.id);
  if (it == by_job_.end()) return;
  Node& node = nodes_[it->second];
  if (node.state != NodeState::kSubmitted) return;

  if (job.status == JobStatus::kCompleted) {
    node.state = NodeState::kDone;
    --in_flight_;
    if (node.spec.post) node.spec.post();
    // Children whose parents are now all done become ready.
    for (const std::size_t child_index : node.children) {
      Node& child = nodes_[child_index];
      if (child.state != NodeState::kWaiting) continue;
      bool all_done = true;
      for (const std::size_t parent : child.parents) {
        if (nodes_[parent].state != NodeState::kDone) {
          all_done = false;
          break;
        }
      }
      if (all_done) child.state = NodeState::kReady;
    }
    pump();
    return;
  }
  if (job.status == JobStatus::kHeld || job.status == JobStatus::kRemoved) {
    --in_flight_;
    by_job_.erase(it);
    if (node.attempts <= node.spec.max_retries) {
      if (job.status == JobStatus::kHeld) schedd_.remove(job.id);
      node.state = NodeState::kReady;
      pump();
    } else {
      node.state = NodeState::kFailed;
      finish(false);
    }
  }
}

bool DagMan::complete() const {
  for (const Node& node : nodes_) {
    if (node.state != NodeState::kDone) return false;
  }
  return true;
}

bool DagMan::failed() const {
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kFailed) return true;
  }
  return false;
}

DagMan::NodeState DagMan::node_state(const std::string& name) const {
  return nodes_[by_name_.at(name)].state;
}

std::optional<std::uint64_t> DagMan::node_job(const std::string& name) const {
  const Node& node = nodes_[by_name_.at(name)];
  if (node.job_id == 0) return std::nullopt;
  return node.job_id;
}

std::size_t DagMan::nodes_done() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.state == NodeState::kDone) ++n;
  }
  return n;
}

void DagMan::finish(bool success) {
  if (finished_) return;
  finished_ = true;
  if (finished_callback_) finished_callback_(success);
}

}  // namespace condorg::core
