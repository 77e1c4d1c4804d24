#include "condorg/mds/giis.h"

#include "condorg/classad/parser.h"
#include "condorg/sim/rpc.h"

namespace condorg::mds {

GiisServer::GiisServer(sim::Host& host, sim::Network& network,
                       gsi::AuthConfig auth)
    : host_(host),
      network_(network),
      auth_(std::move(auth)),
      entries_(host, "giis.entries") {
  install();
  boot_id_ = host_.add_boot([this] { install(); });
  // Directory contents are soft state rebuilt by re-registration: a crash
  // wipes them (the paper's design leans on exactly this property).
  crash_listener_ = host_.add_crash_listener([this] { entries_->clear(); });
}

GiisServer::~GiisServer() {
  host_.remove_boot(boot_id_);
  host_.remove_crash_listener(crash_listener_);
  if (host_.alive()) host_.unregister_service(kService);
}

void GiisServer::install() {
  host_.register_service(kService,
                         [this](const sim::Message& m) { on_message(m); });
}

void GiisServer::prune() {
  const sim::Time now = host_.now();
  for (auto it = entries_->begin(); it != entries_->end();) {
    if (it->second.expires_at <= now) {
      it = entries_->erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t GiisServer::live_count() const {
  std::size_t live = 0;
  for (const auto& [name, entry] : *entries_) {
    if (entry.expires_at > host_.now()) ++live;
  }
  return live;
}

void GiisServer::on_message(const sim::Message& message) {
  const gsi::AuthResult auth =
      gsi::authenticate(auth_, message.body, host_.now());
  if (!auth.ok) {
    ++auth_failures_;
    sim::rpc_refuse(network_, message, address(), auth.why);
    return;
  }

  if (message.type == "grrp.register") {
    const std::string name = message.body.get("name");
    const std::string ad_text = message.body.get("ad");
    const double ttl = message.body.get_double("ttl", 600.0);
    if (name.empty() || ad_text.empty()) {
      sim::rpc_refuse(network_, message, address(),
                      "register requires name and ad");
      return;
    }
    // Validate the ad parses before accepting it into the directory.
    try {
      (void)classad::parse_ad(ad_text);
    } catch (const classad::ParseError& e) {
      sim::rpc_refuse(network_, message, address(),
                      std::string("malformed ad: ") + e.what());
      return;
    }
    (*entries_)[name] = Entry{ad_text, host_.now() + ttl};
    sim::rpc_reply(network_, message, address(), {});
    return;
  }

  if (message.type == "grrp.unregister") {
    entries_->erase(message.body.get("name"));
    sim::rpc_reply(network_, message, address(), {});
    return;
  }

  sim::Payload reply;
  if (message.type == "grip.query") {
    prune();
    ++queries_;
    // Constraint: a ClassAd expression evaluated with MY = the resource ad.
    classad::ExprPtr constraint;
    const std::string constraint_text = message.body.get("constraint");
    if (!constraint_text.empty()) {
      try {
        constraint = classad::parse_expr(constraint_text);
      } catch (const classad::ParseError& e) {
        sim::rpc_refuse(network_, message, address(),
                        std::string("bad constraint: ") + e.what());
        return;
      }
    }
    std::size_t matched = 0;
    for (const auto& [name, entry] : *entries_) {
      bool include = true;
      if (constraint) {
        const classad::ClassAd ad = classad::parse_ad(entry.ad_text);
        const classad::Value v = constraint->evaluate(&ad, nullptr);
        include = v.is_bool() && v.as_bool();
      }
      if (include) {
        reply.set("result." + std::to_string(matched) + ".name", name);
        reply.set("result." + std::to_string(matched) + ".ad", entry.ad_text);
        ++matched;
      }
    }
    reply.set_uint("count", matched);
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }

  if (message.type == "grip.lookup") {
    prune();
    ++queries_;
    const auto it = entries_->find(message.body.get("name"));
    if (it == entries_->end()) {
      sim::rpc_refuse(network_, message, address(), "no such resource");
      return;
    }
    reply.set("ad", it->second.ad_text);
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }

  sim::rpc_unknown(host_, network_, message, address(), "giis");
}

}  // namespace condorg::mds
