#include "condorg/core/credential_manager.h"

namespace condorg::core {
namespace {
// Send a reminder e-mail when less than this lifetime remains (the
// "credential alarm").
constexpr double kAlarmThreshold = 7200.0;
}  // namespace

CredentialManager::CredentialManager(Schedd& schedd, GridManager& gridmanager,
                                     sim::Network& network,
                                     CredentialManagerOptions options)
    : schedd_(schedd),
      gridmanager_(gridmanager),
      host_(schedd.host()),
      options_(std::move(options)),
      credential_(schedd.host(), "credmgr.credential") {
  if (options_.use_myproxy) {
    myproxy_ = std::make_unique<gsi::MyProxyClient>(host_, network,
                                                    "credmgr.myproxy");
  }
  boot_id_ = host_.add_boot([this] {
    if (started_) scan();
  });
}

void CredentialManager::set_credential(gsi::Credential proxy) {
  *credential_ = std::move(proxy);
  alarm_sent_for_current_ = false;
  gridmanager_.set_credential_text((*credential_)->serialize());
  gridmanager_.reforward_credential();
  release_credential_holds();
}

void CredentialManager::start() {
  if (started_) return;
  started_ = true;
  scan();
}

void CredentialManager::scan() {
  const sim::Time now = host_.now();
  const bool have_active_jobs = schedd_.active_count() > 0;

  if (*credential_ && have_active_jobs) {
    const double remaining = (*credential_)->expires_at() - now;

    if (remaining > options_.refresh_threshold &&
        remaining <= kAlarmThreshold && !alarm_sent_for_current_) {
      // "it can be configured to email a reminder when less than a
      // specified time remains before a credential expires."
      alarm_sent_for_current_ = true;
      ++alarms_;
      host_.metrics()
          .counter("credential.alarms", {{"host", host_.name()}})
          .inc();
      schedd_.send_email(
          "credential expiry alarm",
          "your grid proxy expires in " +
              std::to_string(static_cast<long long>(remaining)) +
              " seconds; refresh it with grid-proxy-init");
    }

    if (remaining <= options_.refresh_threshold) {
      if (options_.use_myproxy) {
        refresh_from_myproxy();
      } else {
        // No automatic path: hold the jobs and tell the user.
        hold_grid_jobs();
      }
    }
  }
  host_.post(options_.scan_interval, [this] { scan(); });
}

void CredentialManager::audit(std::vector<std::string>& out) const {
  if (!started_ || !host_.alive() || !*credential_) return;
  const double overdue = host_.now() - (*credential_)->expires_at();
  // Two full scan intervals is enough for the loop to have noticed the
  // expiry and held every live grid job (the hold actually fires
  // refresh_threshold seconds *before* expiry) or refreshed via MyProxy.
  if (overdue <= 2 * options_.scan_interval) return;
  for (const auto& [id, job] : schedd_.jobs()) {
    if (job.desc.universe != Universe::kGrid) continue;
    if (job.status == JobStatus::kIdle || job.status == JobStatus::kRunning) {
      out.push_back("job " + std::to_string(id) + " still " +
                    (job.status == JobStatus::kIdle ? "idle" : "running") +
                    " " +
                    std::to_string(static_cast<long long>(overdue)) +
                    "s after proxy expiry");
    }
  }
}

void CredentialManager::hold_grid_jobs() {
  bool any = false;
  for (const auto& [id, job] : schedd_.jobs()) {
    if (job.desc.universe != Universe::kGrid) continue;
    if (job.status == JobStatus::kIdle || job.status == JobStatus::kRunning) {
      schedd_.hold(id, kHoldReason);
      ++holds_;
      host_.metrics()
          .counter("credential.holds", {{"host", host_.name()}})
          .inc();
      sim::Tracer& tracer = host_.tracer();
      if (tracer.enabled()) {
        tracer.event("credential.hold", id, host_.name(), host_.epoch(),
                     kHoldReason);
      }
      any = true;
    }
  }
  if (any) {
    schedd_.send_email(
        "jobs held: credential expired",
        "your jobs cannot run again until your credentials are refreshed");
  }
}

void CredentialManager::release_credential_holds() {
  for (const auto& [id, job] : schedd_.jobs()) {
    if (job.status == JobStatus::kHeld && job.hold_reason == kHoldReason) {
      schedd_.release(id);
    }
  }
}

void CredentialManager::refresh_from_myproxy() {
  if (refresh_in_flight_) return;
  refresh_in_flight_ = true;
  myproxy_->get(
      options_.myproxy_server, options_.myproxy_user,
      options_.myproxy_passphrase, options_.refresh_lifetime,
      [this](std::optional<gsi::Credential> fresh) {
        refresh_in_flight_ = false;
        if (!fresh) {
          // MyProxy unreachable or refused: fall back to holding jobs.
          hold_grid_jobs();
          return;
        }
        ++refreshes_;
        host_.metrics()
            .counter("credential.refreshes", {{"host", host_.name()}})
            .inc();
        sim::Tracer& tracer = host_.tracer();
        if (tracer.enabled()) {
          tracer.event("credential.refresh", 0, host_.name(), host_.epoch(),
                       "refreshed from myproxy");
        }
        set_credential(std::move(*fresh));
      });
}

}  // namespace condorg::core
