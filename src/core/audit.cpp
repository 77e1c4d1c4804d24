#include "condorg/core/audit.h"

#include <map>

#include "condorg/condor/pool_negotiator.h"
#include "condorg/core/agent.h"
#include "condorg/core/credential_manager.h"
#include "condorg/core/gridmanager.h"
#include "condorg/core/schedd.h"
#include "condorg/gram/gatekeeper.h"
#include "condorg/gram/jobmanager.h"
#include "condorg/sim/simulation.h"

namespace condorg::core {

StandardAuditor::StandardAuditor(sim::Simulation& sim, std::uint64_t period)
    : sim_(sim) {
  // The cross-daemon checks close over the attach lists, so daemons can be
  // attached in any order after construction.
  auditor_.add_check(
      "cross/unique-jobmanager", [this](std::vector<std::string>& out) {
        // callback|tag -> contact of the JobManager already running the job.
        // The tag alone is not unique across users; qualified by the client
        // callback address it names exactly one queue entry.
        std::map<std::string, std::string> owner;
        for (gram::Gatekeeper* gatekeeper : gatekeepers_) {
          if (!gatekeeper->options().dedup_submissions) continue;  // A1 mode
          gatekeeper->for_each_jobmanager([&](const gram::JobManager& jm) {
            if (!jm.process_alive() || !jm.committed() ||
                gram::is_terminal(jm.state())) {
              return;
            }
            const std::string key =
                jm.client_callback().str() + "|" + jm.spec().tag;
            const auto [it, inserted] = owner.emplace(key, jm.contact());
            if (!inserted) {
              out.push_back("job " + jm.spec().tag +
                            " live in two jobmanagers: " + it->second +
                            " and " + jm.contact());
            }
          });
        }
      });
  auditor_.add_check(
      "cross/no-unknown-messages", [this](std::vector<std::string>& out) {
        // Every dispatch tail hands messages it had no arm for to
        // sim::rpc_unknown, which counts them into
        // unknown_message{daemon,type}. A nonzero series means protocol
        // drift: a sender ships a type the receiver no longer (or never)
        // handles, and retries/timeouts are masking it. Deliberately
        // unhandled types must be listed here with a justification.
        static const std::map<std::string, std::string> ignored = {
            // {"unknown_message{daemon=X,type=Y}", "why it is ignored"}
        };
        sim_.metrics().for_each_counter(
            "unknown_message", [&](std::string_view key, std::uint64_t n) {
              if (n == 0 || ignored.count(std::string(key))) return;
              out.push_back(std::string(key) + " = " + std::to_string(n) +
                            " (message reached a daemon with no handler)");
            });
      });
  auditor_.add_check(
      "cross/seq-monotonic", [this](std::vector<std::string>& out) {
        // allocate_seq() persists the bumped allocator before handing a seq
        // out, so a queue entry at or above the allocator carries a sequence
        // number that was never allocated.
        for (GridManager* gridmanager : gridmanagers_) {
          const std::uint64_t next = gridmanager->gram().next_seq();
          for (const auto& [id, job] : gridmanager->schedd().jobs()) {
            if (job.gram_seq != 0 && job.gram_seq >= next) {
              out.push_back("job " + std::to_string(id) + " carries seq " +
                            std::to_string(job.gram_seq) +
                            " but the client allocator is at " +
                            std::to_string(next));
            }
          }
        }
      });
  auditor_.add_check(
      "cross/record-on-disk", [this](std::vector<std::string>& out) {
        // A Running grid job's contact must be backed by a JobManager record
        // on the site front-end's stable storage (persisted before the
        // submit reply, never deleted) — it is what the §4.2 restart ladder
        // reattaches to after any front-end crash.
        for (GridManager* gridmanager : gridmanagers_) {
          for (const auto& [id, job] : gridmanager->schedd().jobs()) {
            if (job.desc.universe != Universe::kGrid ||
                job.status != JobStatus::kRunning ||
                job.gram_contact.empty()) {
              continue;
            }
            const auto colon = job.gram_contact.rfind(':');
            const std::string site = colon == std::string::npos
                                         ? job.gram_contact
                                         : job.gram_contact.substr(0, colon);
            for (gram::Gatekeeper* gatekeeper : gatekeepers_) {
              if (gatekeeper->host().name() != site) continue;
              if (!gatekeeper->host().disk().contains(
                      gram::JobManager::record_key(job.gram_contact))) {
                out.push_back("running job " + std::to_string(id) +
                              " has no stable record for contact " +
                              job.gram_contact + " at " + site);
              }
            }
          }
        }
      });
  auditor_.add_check(
      "cross/trace-roots", [this](std::vector<std::string>& out) {
        // Observability must tell the truth about lifecycles: with tracing
        // on, a terminal queue entry has exactly one closed root span, an
        // open root belongs to a live entry, and no root was begun twice.
        const sim::Tracer& tracer = sim_.tracer();
        if (!tracer.enabled()) return;
        for (Schedd* schedd : schedds_) {
          const std::string& host = schedd->host().name();
          for (const auto& [id, job] : schedd->jobs()) {
            const bool terminal = job.status == JobStatus::kCompleted ||
                                  job.status == JobStatus::kRemoved;
            const sim::Tracer::RootState state =
                tracer.job_root_state(host, id);
            if (state == sim::Tracer::RootState::kNone) {
              continue;  // submitted before tracing was switched on
            }
            if (state == sim::Tracer::RootState::kDuplicate) {
              out.push_back("job " + std::to_string(id) + " on " + host +
                            " has a duplicated root span");
            } else if (terminal &&
                       state != sim::Tracer::RootState::kClosed) {
              out.push_back("terminal job " + std::to_string(id) + " on " +
                            host + " lacks a closed root span");
            } else if (!terminal &&
                       state == sim::Tracer::RootState::kClosed) {
              out.push_back("live job " + std::to_string(id) + " on " + host +
                            " already has a closed root span");
            }
          }
        }
        // Orphans: a root claiming an audited submit host for a job that
        // host's Schedd has never heard of. Roots from unattached hosts are
        // left alone (the auditor may cover only part of a world).
        for (const auto& [host, job_id, state] : tracer.root_states()) {
          (void)state;
          for (Schedd* schedd : schedds_) {
            if (schedd->host().name() != host) continue;
            if (schedd->jobs().count(job_id) == 0) {
              out.push_back("orphan root span for job " +
                            std::to_string(job_id) + " on " + host);
            }
            break;
          }
        }
      });
  auditor_.add_check(
      "cross/metric-cardinality", [this](std::vector<std::string>& out) {
        // The registry's label-cardinality guard must actually hold: no
        // metric family may carry more distinct non-`other` label sets than
        // the cap. A violation means series were minted behind the guard's
        // back (e.g. a direct map insert bypassing the capped lookup).
        for (std::string& line : sim_.metrics().cardinality_violations()) {
          out.push_back(std::move(line));
        }
      });
  sim_.attach_auditor(&auditor_, period);
}

StandardAuditor::~StandardAuditor() {
  if (sim_.auditor() == &auditor_) sim_.attach_auditor(nullptr);
}

void StandardAuditor::attach_schedd(Schedd& schedd) {
  schedds_.push_back(&schedd);
  auditor_.add_check("schedd/" + schedd.host().name(),
                     [&schedd](std::vector<std::string>& out) {
                       schedd.audit(out);
                     });
}

void StandardAuditor::attach_gridmanager(GridManager& gridmanager) {
  gridmanagers_.push_back(&gridmanager);
  auditor_.add_check("gridmanager/" + gridmanager.schedd().host().name(),
                     [&gridmanager](std::vector<std::string>& out) {
                       gridmanager.audit(out);
                     });
}

void StandardAuditor::attach_credential_manager(
    CredentialManager& credentials) {
  auditor_.add_check("credentials/#" + std::to_string(auditor_.check_count()),
                     [&credentials](std::vector<std::string>& out) {
                       credentials.audit(out);
                     });
}

void StandardAuditor::attach_gatekeeper(gram::Gatekeeper& gatekeeper) {
  gatekeepers_.push_back(&gatekeeper);
  auditor_.add_check("gatekeeper/" + gatekeeper.host().name(),
                     [&gatekeeper](std::vector<std::string>& out) {
                       gatekeeper.audit(out);
                     });
}

void StandardAuditor::attach_pool_negotiator(
    condor::PoolNegotiator& negotiator) {
  auditor_.add_check("pool_negotiator/#" +
                         std::to_string(auditor_.check_count()),
                     [&negotiator](std::vector<std::string>& out) {
                       negotiator.audit(out);
                     });
}

void StandardAuditor::attach_agent(CondorGAgent& agent) {
  attach_schedd(agent.schedd());
  attach_gridmanager(agent.gridmanager());
  attach_credential_manager(agent.credentials());
  attach_pool_negotiator(agent.vanilla().negotiator());
}

}  // namespace condorg::core
