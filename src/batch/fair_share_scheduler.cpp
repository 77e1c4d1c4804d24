#include "condorg/batch/fair_share_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace condorg::batch {

FairShareTable::UserId FairShareTable::add_user(std::string name) {
  rows_.push_back(Row{std::move(name)});
  return static_cast<UserId>(rows_.size() - 1);
}

void FairShareTable::charge(UserId user, double amount, double now) {
  Row& row = rows_[user];
  row.usage = decayed(row, now) + amount;
  row.usage_as_of = now;
}

double FairShareTable::effective_usage(UserId user, double now) const {
  return decayed(rows_[user], now);
}

double FairShareTable::decayed(const Row& row, double now) const {
  if (row.usage == 0.0) return 0.0;
  const double dt = now - row.usage_as_of;
  if (dt <= 0.0 || options_.half_life <= 0.0) return row.usage;
  return row.usage * std::exp2(-dt / options_.half_life);
}

void FairShareTable::order(std::vector<UserId>& users, double now) const {
  struct Key {
    UserId user;
    double usage;
    int starvation;
  };
  std::vector<Key> keys;
  keys.reserve(users.size());
  for (const UserId user : users) {
    const Row& row = rows_[user];
    keys.push_back(Key{user, decayed(row, now), row.starvation});
  }
  const int threshold = options_.starvation_threshold;
  std::sort(keys.begin(), keys.end(), [&](const Key& a, const Key& b) {
    const bool a_starved = a.starvation >= threshold;
    const bool b_starved = b.starvation >= threshold;
    if (a_starved != b_starved) return a_starved;
    if (a_starved && b_starved && a.starvation != b.starvation) {
      return a.starvation > b.starvation;
    }
    if (a.usage != b.usage) return a.usage < b.usage;
    return rows_[a.user].name < rows_[b.user].name;
  });
  for (std::size_t i = 0; i < keys.size(); ++i) users[i] = keys[i].user;
}

std::vector<std::string> FairShareTable::priority_order(double now) const {
  std::vector<UserId> users(rows_.size());
  std::iota(users.begin(), users.end(), UserId{0});
  order(users, now);
  std::vector<std::string> out;
  out.reserve(users.size());
  for (const UserId user : users) out.push_back(rows_[user].name);
  return out;
}

std::size_t FairShareScheduler::pick_next(int free) const {
  const auto& q = queue();
  std::size_t best = static_cast<std::size_t>(-1);
  double best_usage = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < q.size(); ++i) {
    const JobRecord& job = record(q[i]);
    if (job.request.cpus > free) continue;
    const double usage = owner_usage(job.request.owner);
    // Oldest job of the least-served owner; FIFO order breaks ties.
    if (usage < best_usage) {
      best_usage = usage;
      best = i;
    }
  }
  return best;
}

}  // namespace condorg::batch
