#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "condorg/batch/fair_share_scheduler.h"

namespace cb = condorg::batch;

namespace {

TEST(FairShareTable, UsersAreDenseIdsInAddOrder) {
  cb::FairShareTable table;
  EXPECT_EQ(table.add_user("zed"), 0u);
  EXPECT_EQ(table.add_user("ada"), 1u);
  EXPECT_EQ(table.user_count(), 2u);
  EXPECT_EQ(table.name(0), "zed");
  EXPECT_EQ(table.name(1), "ada");
}

TEST(FairShareTable, UsageDecaysWithHalfLife) {
  cb::FairShareTable::Options options;
  options.half_life = 100.0;
  cb::FairShareTable table(options);
  const auto ada = table.add_user("ada");
  const auto ghost = table.add_user("ghost");
  table.charge(ada, 8.0, /*now=*/0.0);

  EXPECT_DOUBLE_EQ(table.effective_usage(ada, 0.0), 8.0);
  EXPECT_NEAR(table.effective_usage(ada, 100.0), 4.0, 1e-9);
  EXPECT_NEAR(table.effective_usage(ada, 200.0), 2.0, 1e-9);
  EXPECT_NEAR(table.effective_usage(ada, 300.0), 1.0, 1e-9);
  // Users never charged carry no usage.
  EXPECT_DOUBLE_EQ(table.effective_usage(ghost, 500.0), 0.0);
}

TEST(FairShareTable, ChargesAccumulateAcrossDecay) {
  cb::FairShareTable::Options options;
  options.half_life = 100.0;
  cb::FairShareTable table(options);
  const auto ada = table.add_user("ada");
  table.charge(ada, 4.0, 0.0);
  table.charge(ada, 4.0, 100.0);  // the first charge has halved by now
  EXPECT_NEAR(table.effective_usage(ada, 100.0), 6.0, 1e-9);
}

TEST(FairShareTable, OrderIsAscendingEffectiveUsage) {
  cb::FairShareTable table;
  const auto heavy = table.add_user("heavy");
  const auto light = table.add_user("light");
  table.add_user("idle");
  table.charge(heavy, 10.0, 0.0);
  table.charge(light, 1.0, 0.0);

  const std::vector<std::string> order = table.priority_order(0.0);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "idle");
  EXPECT_EQ(order[1], "light");
  EXPECT_EQ(order[2], "heavy");
}

TEST(FairShareTable, StarvationPromotesPastUsageOrder) {
  cb::FairShareTable::Options options;
  options.starvation_threshold = 3;
  cb::FairShareTable table(options);
  table.add_user("rich");
  const auto starving = table.add_user("starving");
  // `starving` has *more* usage, so it would normally sort behind `rich`...
  table.charge(starving, 5.0, 0.0);

  for (int i = 0; i < 2; ++i) table.note_starved(starving);
  EXPECT_EQ(table.priority_order(0.0).front(), "rich");

  // ...until it crosses the starvation threshold.
  table.note_starved(starving);
  EXPECT_EQ(table.starvation(starving), 3);
  EXPECT_EQ(table.priority_order(0.0).front(), "starving");

  // A served cycle resets the count and the usage order reasserts itself.
  table.note_served(starving);
  EXPECT_EQ(table.starvation(starving), 0);
  EXPECT_EQ(table.priority_order(0.0).front(), "rich");
}

TEST(FairShareTable, MoreStarvedUserWinsAmongPromoted) {
  cb::FairShareTable::Options options;
  options.starvation_threshold = 2;
  cb::FairShareTable table(options);
  const auto a = table.add_user("a");
  const auto b = table.add_user("b");
  for (int i = 0; i < 2; ++i) table.note_starved(b);
  for (int i = 0; i < 4; ++i) table.note_starved(a);
  const auto order = table.priority_order(0.0);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");
}

// Permutation oracle: against randomized charge/starve histories, the
// order must (a) be a permutation of the added users and (b) equal a
// from-scratch std::sort by the documented key — starving users first
// (count desc), then ascending effective usage, names breaking ties.
TEST(FairShareTable, RandomizedOrderMatchesSortOracle) {
  std::mt19937 rng(2001);
  for (int trial = 0; trial < 50; ++trial) {
    cb::FairShareTable::Options options;
    options.half_life = 50.0 + 100.0 * (trial % 3);
    options.starvation_threshold = 2 + trial % 4;
    cb::FairShareTable table(options);

    std::vector<std::string> users;
    const int n = 2 + static_cast<int>(rng() % 7);
    for (int i = 0; i < n; ++i) {
      users.push_back("user-" + std::to_string(i));
      table.add_user(users.back());
    }
    double now = 0.0;
    for (int step = 0; step < 40; ++step) {
      now += static_cast<double>(rng() % 100);
      const auto user = static_cast<cb::FairShareTable::UserId>(
          rng() % users.size());
      switch (rng() % 3) {
        case 0:
          table.charge(user, 1.0 + static_cast<double>(rng() % 8), now);
          break;
        case 1:
          table.note_starved(user);
          break;
        default:
          table.note_served(user);
          break;
      }
    }

    const std::vector<std::string> order = table.priority_order(now);
    ASSERT_EQ(order.size(), users.size());
    std::vector<std::string> sorted_order = order;
    std::sort(sorted_order.begin(), sorted_order.end());
    std::vector<std::string> sorted_users = users;
    std::sort(sorted_users.begin(), sorted_users.end());
    EXPECT_EQ(sorted_order, sorted_users) << "not a permutation";

    // Ids are add order, which is name order here.
    std::vector<cb::FairShareTable::UserId> oracle(users.size());
    std::iota(oracle.begin(), oracle.end(), cb::FairShareTable::UserId{0});
    const int threshold = options.starvation_threshold;
    std::sort(oracle.begin(), oracle.end(), [&](auto a, auto b) {
      const bool sa = table.starvation(a) >= threshold;
      const bool sb = table.starvation(b) >= threshold;
      if (sa != sb) return sa;
      if (sa && sb && table.starvation(a) != table.starvation(b)) {
        return table.starvation(a) > table.starvation(b);
      }
      const double ua = table.effective_usage(a, now);
      const double ub = table.effective_usage(b, now);
      if (ua != ub) return ua < ub;
      return users[a] < users[b];
    });
    std::vector<std::string> oracle_names;
    for (const auto id : oracle) oracle_names.push_back(users[id]);
    EXPECT_EQ(order, oracle_names) << "trial " << trial;
  }
}

// The negotiator orders only the users that have candidates, by id. Over a
// seeded schedule of charges and served/starved marks across 50 users
// (added in an order unrelated to their names), ordering any subset of ids
// must give priority_order() filtered to that subset.
TEST(FairShareTable, OrderOfAnyIdSubsetIsPriorityOrderFiltered) {
  std::mt19937 rng(28);
  cb::FairShareTable::Options options;
  options.half_life = 200.0;
  options.starvation_threshold = 3;
  cb::FairShareTable table(options);
  constexpr int kUsers = 50;
  for (int i = 0; i < kUsers; ++i) {
    table.add_user("u" + std::to_string((i * 37) % kUsers));
  }
  double now = 0.0;
  for (int step = 0; step < 400; ++step) {
    now += static_cast<double>(rng() % 20);
    const auto user = static_cast<cb::FairShareTable::UserId>(rng() % kUsers);
    switch (rng() % 4) {
      case 0:
        table.charge(user, 1.0 + static_cast<double>(rng() % 3), now);
        break;
      case 1:
        table.note_served(user);
        break;
      default:
        table.note_starved(user);
        break;
    }
    if (step % 20 != 19) continue;

    std::vector<cb::FairShareTable::UserId> subset;
    for (cb::FairShareTable::UserId id = 0; id < kUsers; ++id) {
      if (rng() % 3 == 0) subset.push_back(id);
    }
    std::shuffle(subset.begin(), subset.end(), rng);
    table.order(subset, now);
    std::vector<std::string> by_id;
    for (const auto id : subset) by_id.push_back(table.name(id));

    std::vector<std::string> filtered;
    for (const std::string& name : table.priority_order(now)) {
      for (const auto id : subset) {
        if (table.name(id) == name) filtered.push_back(name);
      }
    }
    EXPECT_EQ(by_id, filtered) << "step " << step;
  }
}

}  // namespace
