// Credential lifecycle management (§4.3 of the paper).
//
// Proxy credentials have deliberately short lifetimes. The agent
// "periodically analyzes the credentials for all users with currently
// queued jobs"; when one is expired or about to expire it places affected
// jobs on hold and e-mails the user, sends configurable expiry-alarm
// reminders, and — when a MyProxy server is configured — refreshes the
// proxy automatically and re-forwards it to remote JobManagers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "condorg/core/gridmanager.h"
#include "condorg/core/schedd.h"
#include "condorg/gsi/myproxy.h"

namespace condorg::core {

struct CredentialManagerOptions {
  double scan_interval = 600.0;
  /// Hold jobs / refresh when less than this much lifetime remains.
  double refresh_threshold = 1800.0;
  /// Lifetime requested for refreshed proxies.
  double refresh_lifetime = 43200.0;
  bool use_myproxy = false;
  sim::Address myproxy_server;
  std::string myproxy_user;
  std::string myproxy_passphrase;
};

class CredentialManager {
 public:
  /// Submit-host daemon: the proxy lives with the user's agent.
  CONDORG_HOST_LOCAL("user");

  CredentialManager(Schedd& schedd, GridManager& gridmanager,
                    sim::Network& network, CredentialManagerOptions options);

  CredentialManager(const CredentialManager&) = delete;
  CredentialManager& operator=(const CredentialManager&) = delete;

  /// Install the user's proxy (grid-proxy-init / manual refresh). Releases
  /// jobs held for credential expiry and re-forwards to active sites.
  void set_credential(gsi::Credential proxy);
  const std::optional<gsi::Credential>& credential() const {
    return *credential_;
  }

  /// Start the periodic scan loop.
  void start();

  /// Invariant audit hook (§4.3): once the proxy has been expired for more
  /// than two scan intervals, no grid job may still be live (Idle/Running) —
  /// each must have been held, or the proxy refreshed (which replaces the
  /// credential and clears the condition). Appends one line per violation.
  void audit(std::vector<std::string>& out) const;

  std::uint64_t holds_issued() const { return holds_; }
  std::uint64_t refreshes() const { return refreshes_; }
  std::uint64_t alarms_sent() const { return alarms_; }

  static constexpr const char* kHoldReason = "credential expired or expiring";

 private:
  void scan();
  void hold_grid_jobs();
  void release_credential_holds();
  void refresh_from_myproxy();

  Schedd& schedd_;
  GridManager& gridmanager_;
  sim::Host& host_;
  CredentialManagerOptions options_;
  det::HostLocal<std::optional<gsi::Credential>> credential_;
  std::unique_ptr<gsi::MyProxyClient> myproxy_;
  bool started_ = false;
  bool alarm_sent_for_current_ = false;
  bool refresh_in_flight_ = false;
  int boot_id_ = 0;
  std::uint64_t holds_ = 0;
  std::uint64_t refreshes_ = 0;
  std::uint64_t alarms_ = 0;
};

}  // namespace condorg::core
