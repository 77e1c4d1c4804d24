#include "condorg/core/glidein.h"

#include <stdexcept>

#include "condorg/core/glidein_starter.h"

namespace condorg::core {
namespace {
constexpr const char* kBootstrapPath = "glidein/glidein_startup.sh";
constexpr const char* kCallbackService = "glidein.mgr";
}  // namespace

GlideInManager::GlideInManager(Schedd& schedd, sim::Network& network,
                               gass::FileService& gass,
                               GlideInOptions options)
    : schedd_(schedd),
      network_(network),
      host_(schedd.host()),
      gass_(gass),
      options_(std::move(options)),
      gram_(host_, network, "glidein", {}),
      rpc_(host_, network, std::string(kCallbackService) + ".rpc"),
      glideins_(host_, "glidein.glideins"),
      stashed_states_(host_, "glidein.stashed_states") {
  // The bootstrap "executable" every glidein stages in: "a portable shell
  // script, which in turn uses GSI-authenticated GridFTP to retrieve the
  // Condor executables from a central repository".
  gass_.store().put(kBootstrapPath, "#!/bin/sh glidein_startup", 64 * 1024);
  host_.register_service(kCallbackService,
                         [this](const sim::Message& m) { on_message(m); });
}

GlideInManager::~GlideInManager() {
  if (host_.alive()) host_.unregister_service(kCallbackService);
}

sim::Address GlideInManager::address() const {
  return {host_.name(), kCallbackService};
}

void GlideInManager::add_site(GlideInSite site) {
  sim::Host* node = site.cluster_host;
  if (node == nullptr) {
    throw std::invalid_argument("glide-in site " + site.name +
                                " has no cluster host");
  }
  auto state = std::make_unique<SiteState>();
  state->site = std::move(site);
  state->starter = sim::Address{node->name(), GlideInStarter::kService};
  // lint-allow(cross-partition-ref): setup-time construction in add_site
  starters_.push_back(std::make_unique<GlideInStarter>(
      *node, network_, state->site.name, options_, address()));
  sites_.push_back(std::move(state));
}

void GlideInManager::start() {
  if (started_) return;
  started_ = true;
  tick();
}

std::size_t GlideInManager::demand() const {
  return schedd_.idle_jobs(Universe::kVanilla).size();
}

void GlideInManager::tick() {
  // Flood bounded by per-site caps: keep (pending + live) glideins no
  // larger than the number of idle jobs, spread round-robin over sites.
  std::size_t supply = pending_ + live_;
  const std::size_t want = demand();
  bool progress = true;
  while (supply < want && progress) {
    progress = false;
    for (auto& state : sites_) {
      if (supply >= want) break;
      if (state->pending + state->live >= state->site.max_glideins) {
        continue;
      }
      submit_glidein(*state);
      ++supply;
      progress = true;
    }
  }
  host_.post(options_.tick_interval, [this] { tick(); });
}

void GlideInManager::submit_glidein(SiteState& state) {
  gram::GramJobSpec spec;
  spec.executable = kBootstrapPath;
  spec.output = "";  // daemons produce no output file
  spec.gass_url = gass_.address().str();
  spec.runtime_seconds = options_.walltime;  // occupies the slot until exit
  spec.walltime_limit = options_.walltime;
  spec.cpus = state.site.cpus_per_glidein;
  // A tag per glide-in: the Gatekeeper's audit reads two live JobManagers
  // with one (callback, tag) as one job running twice.
  const std::uint64_t seq = gram_.allocate_seq();
  spec.tag = "glidein" + std::to_string(seq);
  ++state.pending;
  ++pending_;
  ++submitted_;
  gram_.submit_with_seq(
      seq, state.site.gatekeeper, spec, address(),
      [this, &state](gram::SiteReply<std::string> reply) {
        if (!reply.answer) {
          --state.pending;
          --pending_;
          return;
        }
        const std::string& contact = *reply.answer;
        (*glideins_)[contact] = Glidein{&state};
        const auto stashed = stashed_states_->find(contact);
        if (stashed != stashed_states_->end()) {
          const std::string missed = stashed->second;
          stashed_states_->erase(stashed);
          on_state(contact, missed);
        }
      });
}

void GlideInManager::on_message(const sim::Message& message) {
  if (message.type == "gram.callback") {
    on_state(message.body.get("contact"), message.body.get("state"));
  } else if (message.type == "glidein.exited") {
    on_exited(message.body.get("contact"));
  } else {
    sim::rpc_unknown(host_, network_, message, address(), "glidein");
  }
}

void GlideInManager::on_state(const std::string& contact,
                              const std::string& state) {
  const auto it = glideins_->find(contact);
  if (it == glideins_->end()) {
    (*stashed_states_)[contact] = state;  // submit-ack still in flight
    return;
  }
  Glidein& glidein = it->second;
  SiteState& site = *glidein.site;
  if (state == "ACTIVE") {
    if (glidein.phase != Phase::kPending) return;
    // Delayed binding: the site's batch system just allocated our slot.
    // The payload starts the daemons on the node.
    glidein.phase = Phase::kLive;
    --site.pending;
    --pending_;
    ++site.live;
    ++live_;
    ++launched_;
    sim::Payload start;
    start.set("contact", contact);
    start.set("slot", "glidein" + std::to_string(++glidein_counter_) + "@" +
                          site.site.name);
    start.set_double("expires_at", host_.now() + options_.walltime);
    rpc_.notify(site.starter, "glidein.start", std::move(start));
  } else if (state == "DONE" || state == "FAILED") {
    // Allocation ended (or submission failed). A glide-in still counted
    // live sent no exit notice (its node crashed, or the notice was lost):
    // release it here. Its batch slot is already free, so no cancel.
    if (glidein.phase == Phase::kPending) {
      --site.pending;
      --pending_;
    }
    release(glidein);
    glideins_->erase(it);
  }
}

void GlideInManager::on_exited(const std::string& contact) {
  const auto it = glideins_->find(contact);
  // Gone or already released: the GRAM callback beat the notice.
  if (it == glideins_->end() || !release(it->second)) return;
  // Free the batch slot if the daemon quit before its allocation ended
  // (idle timeout): cancel the GRAM job. Its terminal callback then drops
  // the record.
  gram_.cancel(contact, [](bool) {});
}

bool GlideInManager::release(Glidein& glidein) {
  if (glidein.phase != Phase::kLive) return false;
  glidein.phase = Phase::kReleased;
  --glidein.site->live;
  --live_;
  ++exited_;
  return true;
}

}  // namespace condorg::core
