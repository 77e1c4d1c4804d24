#include "condorg/core/agent.h"

namespace condorg::core {

CondorGAgent::CondorGAgent(sim::World& world, const std::string& submit_host,
                           AgentOptions options)
    : world_(world),
      host_(world.host(submit_host)),
      chooser_(std::make_shared<SiteChooser>(
          [](const Job&,
             std::function<void(std::optional<sim::Address>)> done) {
            done(std::nullopt);  // no broker installed
          })) {
  schedd_ = std::make_unique<Schedd>(host_);
  // The GridManager gets a stable proxy that forwards to the replaceable
  // chooser, so brokers can be swapped at runtime.
  auto chooser_ref = chooser_;
  gridmanager_ = std::make_unique<GridManager>(
      *schedd_, world.net(), options.user,
      [chooser_ref](const Job& job,
                    std::function<void(std::optional<sim::Address>)> done) {
        (*chooser_ref)(job, std::move(done));
      },
      options.gridmanager);
  credentials_ = std::make_unique<CredentialManager>(
      *schedd_, *gridmanager_, world.net(), options.credentials);
  collector_ = std::make_unique<condor::Collector>(host_, world.net());
  vanilla_ = std::make_unique<VanillaRunner>(
      *schedd_, world.net(), *collector_, options.user, options.vanilla);
}

GlideInManager& CondorGAgent::enable_glideins(GlideInOptions options) {
  if (!glideins_) {
    if (options.collector.host.empty()) {
      options.collector = collector_->address();
    }
    glideins_ = std::make_unique<GlideInManager>(
        *schedd_, world_.net(), gridmanager_->gass(), std::move(options));
    if (!gridmanager_->gram().credential_text().empty()) {
      glideins_->set_credential_text(gridmanager_->gram().credential_text());
    }
  }
  return *glideins_;
}

void CondorGAgent::start() {
  gridmanager_->start();
  credentials_->start();
  vanilla_->start();
  if (glideins_) glideins_->start();
}

std::unique_ptr<DagMan> CondorGAgent::make_dagman(Dag dag,
                                                  DagManOptions options) {
  return std::make_unique<DagMan>(*schedd_, std::move(dag), options);
}

}  // namespace condorg::core
