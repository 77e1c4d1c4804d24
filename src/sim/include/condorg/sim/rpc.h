// Request/response helper over the datagram Network.
//
// RPC here is deliberately *unreliable*: a call can time out because the
// request or the response was lost, and the caller cannot tell which — the
// exact ambiguity GRAM's two-phase commit (§3.2 of the paper) exists to
// resolve. Retries and deduplication are the responsibility of protocol
// layers above.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "condorg/sim/host.h"
#include "condorg/sim/message.h"
#include "condorg/sim/network.h"

namespace condorg::sim {

class RpcClient {
 public:
  /// Result callback: ok=false means timeout (request or reply lost, peer
  /// dead, or partition); the payload is then empty.
  using Callback = std::function<void(bool ok, const Payload& reply)>;

  /// `service` names this client's reply endpoint on `host`; it must be
  /// unique per host.
  RpcClient(Host& host, Network& network, std::string service);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Issue a request to `to` with the given type/payload; `callback` fires
  /// exactly once, with the reply or a timeout.
  void call(const Address& to, const std::string& type, Payload payload,
            double timeout_seconds, Callback callback);

  /// One-way send from this client's endpoint (no reply expected).
  void notify(const Address& to, const std::string& type, Payload payload);

  const std::string& service() const { return service_; }
  Address address() const { return Address{host_.name(), service_}; }

  std::size_t pending() const { return pending_.size(); }

 private:
  struct Pending {
    Callback callback;
    EventId timeout_event;
  };

  void on_message(const Message& message);
  void install_handler();

  Host& host_;
  Network& network_;
  std::string service_;
  std::uint64_t next_id_ = 1;
  // Ordered by call id so crash/destructor sweeps run in issue order — an
  // unordered map here leaks iteration order into the event queue.
  std::map<std::uint64_t, Pending> pending_;
  int crash_listener_ = 0;
  int boot_id_ = 0;
};

/// Server-side helper: build and send the reply for `request`, echoing the
/// correlation id. `from` is the responding service's address.
void rpc_reply(Network& network, const Message& request, const Address& from,
               Payload reply);

}  // namespace condorg::sim
