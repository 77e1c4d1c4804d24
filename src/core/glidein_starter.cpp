#include "condorg/core/glidein_starter.h"

#include <utility>

namespace condorg::core {

GlideInStarter::GlideInStarter(sim::Host& node, sim::Network& network,
                               std::string site, GlideInOptions options,
                               sim::Address manager)
    : host_(node),
      network_(network),
      site_(std::move(site)),
      options_(std::move(options)),
      manager_(std::move(manager)),
      rpc_(node, network, std::string(kService) + ".rpc"),
      glideins_(node, "glidein_starter.glideins"),
      startds_(node, "glidein_starter.startds") {
  install();
  // The daemons are processes on this node: a crash kills them outright,
  // with no exit notice (a Startd runs no on_exit on a crash), and the
  // restarted starter answers MISSING for each of them.
  crash_listener_ = host_.add_crash_listener([this] {
    glideins_->clear();
    startds_->clear();
  });
  boot_id_ = host_.add_boot([this] { install(); });
}

GlideInStarter::~GlideInStarter() {
  host_.remove_crash_listener(crash_listener_);
  host_.remove_boot(boot_id_);
  if (host_.alive()) host_.unregister_service(kService);
}

void GlideInStarter::install() {
  host_.register_service(kService,
                         [this](const sim::Message& m) { on_message(m); });
}

void GlideInStarter::on_message(const sim::Message& message) {
  if (message.type == "glidein.start") {
    start(message.body.get("contact"), message.body.get("slot"),
          message.body.get_double("expires_at"));
    return;
  }
  if (message.type == "startd.status_all") {
    // This node's responder: one answer for every Startd it runs.
    condor::Startd::answer_status_all(
        network_, message, {host_.name(), kService},
        [this](const std::string& service) -> const condor::Startd* {
          const auto it = startds_->find(service);
          return it == startds_->end() ? nullptr : it->second;
        });
    return;
  }
  sim::rpc_unknown(host_, network_, message, {host_.name(), kService},
                   "glidein_starter");
}

void GlideInStarter::start(const std::string& contact, const std::string& slot,
                           double expires_at) {
  const auto [it, fresh] = glideins_->try_emplace(contact);
  if (!fresh) return;  // already running this glide-in
  if (!options_.binary_repository) {
    launch(contact, slot, expires_at);
    return;
  }
  // Fetch the Condor binaries from the central repository first; the
  // startd only comes up once the transfer lands. On failure the GRAM job
  // idles until its allocation ends and the site reclaims the slot.
  it->second.fetcher = std::make_unique<gass::FileClient>(
      host_, network_, "glidein.fetch." + slot);
  it->second.fetcher->get(
      *options_.binary_repository, options_.binary_path,
      [this, contact, slot, expires_at](std::optional<gass::FileInfo> file) {
        if (file) launch(contact, slot, expires_at);
      });
}

void GlideInStarter::launch(const std::string& contact, const std::string& slot,
                            double expires_at) {
  condor::StartdOptions so;
  so.collector = options_.collector;
  so.advertise_period = options_.advertise_period;
  so.checkpoint_interval = options_.checkpoint_interval;
  so.allocation_expires_at = expires_at;
  so.idle_timeout = options_.idle_timeout;
  if (options_.mean_slot_available_seconds > 0) {
    so.owner_activity = true;
    so.mean_owner_away_seconds = options_.mean_slot_available_seconds;
    so.mean_owner_busy_seconds = options_.mean_slot_reclaimed_seconds;
  }
  so.base_ad.insert_string("GlideIn", "true");
  so.base_ad.insert_string("Site", site_);
  so.base_ad.insert_string("Responder",
                           sim::Address{host_.name(), kService}.str());
  auto& startd = (*glideins_)[contact].startd;
  startd = std::make_unique<condor::Startd>(
      host_, network_, slot, std::move(so),
      /*on_exit=*/[this, contact] { on_exit(contact); });
  (*startds_)[startd->address().service] = startd.get();
}

void GlideInStarter::on_exit(const std::string& contact) {
  sim::Payload notice;
  notice.set("contact", contact);
  rpc_.notify(manager_, "glidein.exited", std::move(notice));
  // The Startd is still on the call stack: release it on a later event.
  host_.post(0.0, life_.wrap([this, contact] {
    const auto it = glideins_->find(contact);
    if (it == glideins_->end()) return;
    if (it->second.startd) {
      startds_->erase(it->second.startd->address().service);
    }
    glideins_->erase(it);
  }));
}

}  // namespace condorg::core
