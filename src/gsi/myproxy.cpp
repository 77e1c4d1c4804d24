#include "condorg/gsi/myproxy.h"

#include "condorg/util/rng.h"
#include "condorg/util/strings.h"

namespace condorg::gsi {
namespace {
constexpr const char* kKeyPrefix = "myproxy/";
constexpr double kRpcTimeout = 30.0;

std::string record_key(const std::string& user) {
  return std::string(kKeyPrefix) + user;
}

/// Passphrases are stored hashed, not in the clear.
std::string passphrase_digest(const std::string& passphrase) {
  return std::to_string(util::fnv1a(passphrase, 0x4d7950726f787921ull));
}
}  // namespace

MyProxyServer::MyProxyServer(sim::Host& host, sim::Network& network, Pki& pki)
    : host_(host), network_(network), pki_(pki) {
  install();
  boot_id_ = host_.add_boot([this] { install(); });
}

MyProxyServer::~MyProxyServer() {
  host_.remove_boot(boot_id_);
  if (host_.alive()) host_.unregister_service(kService);
}

void MyProxyServer::install() {
  host_.register_service(
      kService, [this](const sim::Message& m) { on_message(m); });
}

std::size_t MyProxyServer::stored_count() const {
  return host_.disk().keys_with_prefix(kKeyPrefix).size();
}

void MyProxyServer::on_message(const sim::Message& message) {
  const std::string user = message.body.get("user");
  const std::string digest = passphrase_digest(message.body.get("passphrase"));

  if (message.type == "myproxy.store") {
    // Crash point: store request received, credential not yet on disk —
    // the client retries and the retried store is a plain overwrite.
    if (host_.crash_point("myproxy.store_recv")) return;
    const auto credential =
        Credential::deserialize(message.body.get("credential"));
    if (!credential || user.empty()) {
      sim::rpc_refuse(network_, message, address(), "malformed store request");
      return;
    }
    host_.disk().put(record_key(user),
                     digest + "\x1c" + credential->serialize());
    sim::rpc_reply(network_, message, address(), {});
    return;
  }
  if (message.type == "myproxy.get") {
    const auto record = host_.disk().get(record_key(user));
    if (!record) {
      sim::rpc_refuse(network_, message, address(),
                      "no credential stored for user");
      return;
    }
    const auto sep = record->find('\x1c');
    if (sep == std::string::npos || record->substr(0, sep) != digest) {
      sim::rpc_refuse(network_, message, address(), "bad passphrase");
      return;
    }
    const auto stored = Credential::deserialize(record->substr(sep + 1));
    if (!stored || !stored->valid_at(host_.now())) {
      sim::rpc_refuse(network_, message, address(),
                      "stored credential expired");
      return;
    }
    const double lifetime = message.body.get_double("lifetime", 43200.0);
    sim::Payload reply;
    reply.set("credential",
              stored->delegate(pki_, host_.now(), lifetime).serialize());
    ++proxies_issued_;
    sim::rpc_reply(network_, message, address(), std::move(reply));
    return;
  }
  sim::rpc_unknown(host_, network_, message, address(), "myproxy");
}

MyProxyClient::MyProxyClient(sim::Host& host, sim::Network& network,
                             const std::string& reply_service)
    : rpc_(host, network, reply_service) {}

void MyProxyClient::store(const sim::Address& server, const std::string& user,
                          const std::string& passphrase,
                          const Credential& credential,
                          StoreCallback callback) {
  sim::Payload payload;
  payload.set("user", user);
  payload.set("passphrase", passphrase);
  payload.set("credential", credential.serialize());
  rpc_.call(server, "myproxy.store", std::move(payload), kRpcTimeout,
            sim::rpc_answered(std::move(callback)));
}

void MyProxyClient::get(const sim::Address& server, const std::string& user,
                        const std::string& passphrase,
                        double lifetime_seconds, GetCallback callback) {
  sim::Payload payload;
  payload.set("user", user);
  payload.set("passphrase", passphrase);
  payload.set_double("lifetime", lifetime_seconds);
  rpc_.call(server, "myproxy.get", std::move(payload), kRpcTimeout,
            [callback = std::move(callback)](sim::RpcOutcome outcome,
                                             const sim::Payload& reply) {
              if (outcome != sim::RpcOutcome::kAnswered) {
                callback(std::nullopt);
                return;
              }
              callback(Credential::deserialize(reply.get("credential")));
            });
}

}  // namespace condorg::gsi
