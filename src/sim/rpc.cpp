#include "condorg/sim/rpc.h"

#include <utility>

namespace condorg::sim {
namespace {
constexpr const char* kRpcId = "rpc.id";
constexpr const char* kRpcReplyTo = "rpc.reply_to";
}  // namespace

RpcClient::RpcClient(Host& host, Network& network, std::string service)
    : host_(host), network_(network), service_(std::move(service)) {
  install_handler();
  // A crash invalidates every outstanding call: the in-flight state was
  // volatile. Callbacks are NOT invoked — their owners died with the host.
  crash_listener_ = host_.add_crash_listener([this] {
    for (auto& [id, pending] : pending_) {
      host_.sim().cancel(pending.timeout_event);
    }
    pending_.clear();
  });
  // Re-install the reply handler when the host reboots so a reconstructed
  // daemon can reuse this client.
  boot_id_ = host_.add_boot([this] { install_handler(); });
}

RpcClient::~RpcClient() {
  // Outstanding timeouts are lifetime-guarded, so none fires into a
  // destroyed client; cancel them where the kernel allows. A client torn
  // down from another island (a glide-in startd released by its manager on
  // the submit host) may not cancel the node's events: those fire later as
  // no-ops.
  life_.revoke();
  for (auto& [id, pending] : pending_) {
    if (host_.sim().may_cancel(pending.timeout_event)) {
      host_.sim().cancel(pending.timeout_event);
    }
  }
  host_.remove_crash_listener(crash_listener_);
  host_.remove_boot(boot_id_);
  if (host_.alive()) host_.unregister_service(service_);
}

void RpcClient::install_handler() {
  host_.register_service(service_,
                         [this](const Message& m) { on_message(m); });
}

void RpcClient::call(const Address& to, const std::string& type,
                     Payload payload, double timeout_seconds,
                     Callback callback) {
  const std::uint64_t id = next_id_++;
  payload.set_uint(kRpcId, id);
  payload.set(kRpcReplyTo, address().str());

  const EventId timeout_event =
      host_.post(timeout_seconds, life_.wrap([this, id] {
                   const auto it = pending_.find(id);
                   if (it == pending_.end()) return;
                   Callback cb = std::move(it->second.callback);
                   pending_.erase(it);
                   cb(false, Payload{});
                 }));
  pending_.emplace(id, Pending{std::move(callback), timeout_event});

  Message message;
  message.from = address();
  message.to = to;
  message.type = type;
  message.body = std::move(payload);
  network_.send(std::move(message));
}

void RpcClient::notify(const Address& to, const std::string& type,
                       Payload payload) {
  Message message;
  message.from = address();
  message.to = to;
  message.type = type;
  message.body = std::move(payload);
  network_.send(std::move(message));
}

void RpcClient::on_message(const Message& message) {
  const std::uint64_t id = message.body.get_uint(kRpcId);
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;  // late reply after timeout: drop
  host_.sim().cancel(it->second.timeout_event);
  Callback cb = std::move(it->second.callback);
  pending_.erase(it);
  cb(true, message.body);
}

void rpc_reply(Network& network, const Message& request, const Address& from,
               Payload reply) {
  reply.set_uint(kRpcId, request.body.get_uint(kRpcId));
  Message message;
  message.from = from;
  message.to = Address::parse(request.body.get(kRpcReplyTo));
  message.type = request.type + ".reply";
  message.body = std::move(reply);
  network.send(std::move(message));
}

}  // namespace condorg::sim
