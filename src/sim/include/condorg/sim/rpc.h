// Request/response helper over the datagram Network.
//
// RPC here is deliberately *unreliable*: a call can time out because the
// request or the response was lost, and the caller cannot tell which — the
// exact ambiguity GRAM's two-phase commit (§3.2 of the paper) exists to
// resolve. Retries and deduplication are the responsibility of protocol
// layers above.
//
// A call ends in one of three outcomes: answered (rpc_reply; the payload is
// the answer), refused (rpc_refuse; the reply's `why` holds the server's
// reason: the server is up and would refuse a resend too), or silent (no
// reply before the timeout: request or reply lost, peer dead, or
// partition; the payload is empty).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "condorg/sim/host.h"
#include "condorg/sim/message.h"
#include "condorg/sim/network.h"

namespace condorg::sim {

enum class RpcOutcome { kAnswered, kRefused, kSilent };

class RpcClient {
 public:
  using Callback =
      std::function<void(RpcOutcome outcome, const Payload& reply)>;

  /// `service` names this client's reply endpoint on `host`; it must be
  /// unique per host.
  RpcClient(Host& host, Network& network, std::string service);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Issue a request to `to` with the given type/payload; `callback` fires
  /// exactly once, with the reply's outcome or a timeout's kSilent.
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

/// Server-side helper: answer `request`, echoing the correlation id. `from`
/// is the responding service's address.
void rpc_reply(Network& network, const Message& request, const Address& from,
               Payload reply);

/// Server-side helper: refuse `request` for reason `why`.
void rpc_refuse(Network& network, const Message& request, const Address& from,
                std::string why);

/// A message none of `daemon`'s handlers knows: counts it by daemon and
/// type (the series the auditor's no-unknown-messages check reads) and
/// refuses it with "unknown operation: <type>" when it is a request. A
/// notify, or a request the daemon has `acked` already, is only counted.
void rpc_unknown(Host& host, Network& network, const Message& message,
                 const Address& from, const char* daemon, bool acked = false);

/// A Callback for callers that need only to know whether the call was
/// answered: `done(false)` on a refusal or silence.
RpcClient::Callback rpc_answered(std::function<void(bool answered)> done);

}  // namespace condorg::sim
