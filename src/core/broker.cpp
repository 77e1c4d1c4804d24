#include "condorg/core/broker.h"

#include <limits>

namespace condorg::core {
namespace {
// MdsBroker: repeated choices within this window reuse the last query
// result instead of hammering the directory.
constexpr double kCacheTtl = 60.0;
}  // namespace

SiteChooser make_static_chooser(std::vector<sim::Address> gatekeepers) {
  auto index = std::make_shared<std::size_t>(0);
  return [gatekeepers = std::move(gatekeepers), index](
             const Job&,
             std::function<void(std::optional<sim::Address>)> done) {
    if (gatekeepers.empty()) {
      done(std::nullopt);
      return;
    }
    done(gatekeepers[(*index)++ % gatekeepers.size()]);
  };
}

SiteChooser make_random_chooser(std::vector<sim::Address> gatekeepers,
                                util::Rng rng) {
  auto state = std::make_shared<util::Rng>(rng);
  return [gatekeepers = std::move(gatekeepers), state](
             const Job&,
             std::function<void(std::optional<sim::Address>)> done) {
    if (gatekeepers.empty()) {
      done(std::nullopt);
      return;
    }
    done(gatekeepers[state->below(gatekeepers.size())]);
  };
}

classad::ClassAd broker_job_ad(const Job& job) {
  classad::ClassAd ad = job.desc.ad;
  if (!ad.contains("Cpus")) ad.insert_int("Cpus", job.desc.cpus);
  if (!ad.contains("JobId")) {
    ad.insert_int("JobId", static_cast<std::int64_t>(job.id));
  }
  if (!ad.contains("Owner")) ad.insert_string("Owner", job.desc.owner);
  return ad;
}

MdsBroker::MdsBroker(sim::Host& host, sim::Network& network,
                     sim::Address giis, std::string reply_service)
    : host_(host),
      client_(host, network, std::move(reply_service)),
      giis_(std::move(giis)) {}

SiteChooser MdsBroker::chooser() {
  return [this](const Job& job,
                std::function<void(std::optional<sim::Address>)> done) {
    choose(job, std::move(done));
  };
}

std::shared_ptr<const classad::ClassAd> MdsBroker::job_ad_for(const Job& job) {
  // Schedd-assigned ids start at 1; id 0 means "not yet submitted" (ad-hoc
  // Job objects in tests/tools), where distinct jobs can share the id — never
  // cache those.
  if (job.id == 0) {
    return std::make_shared<const classad::ClassAd>(broker_job_ad(job));
  }
  if (!job_ad_ || job_ad_id_ != job.id) {
    job_ad_ = std::make_shared<const classad::ClassAd>(broker_job_ad(job));
    job_ad_id_ = job.id;
  }
  return job_ad_;
}

void MdsBroker::choose(
    const Job& job, std::function<void(std::optional<sim::Address>)> done) {
  std::shared_ptr<const classad::ClassAd> job_ad = job_ad_for(job);
  if (host_.now() - cache_time_ <= kCacheTtl) {
    pick_from(cache_, *job_ad, done);
    return;
  }
  ++queries_;
  client_.query(
      giis_, "",
      [this, job_ad = std::move(job_ad), done = std::move(done)](
          std::optional<std::vector<mds::ResourceRecord>> records) {
        if (!records) {
          done(std::nullopt);  // directory unreachable
          return;
        }
        cache_ = std::move(*records);
        cache_time_ = host_.now();
        pick_from(cache_, *job_ad, done);
      });
}

void MdsBroker::pick_from(
    const std::vector<mds::ResourceRecord>& records,
    const classad::ClassAd& job_ad,
    const std::function<void(std::optional<sim::Address>)>& done) {
  const mds::ResourceRecord* best = nullptr;
  double best_rank = -std::numeric_limits<double>::infinity();
  for (const mds::ResourceRecord& record : records) {
    if (!record.ad.contains("GatekeeperHost")) continue;
    if (!classad::symmetric_match(job_ad, record.ad)) continue;
    const double rank = classad::eval_rank(job_ad, record.ad);
    if (best == nullptr || rank > best_rank) {
      best = &record;
      best_rank = rank;
    }
  }
  if (best == nullptr) {
    done(std::nullopt);
    return;
  }
  done(sim::Address{*best->ad.eval_string("GatekeeperHost"),
                    gram::kGatekeeperService});
}

}  // namespace condorg::core
