#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "condorg/batch/fifo_scheduler.h"
#include "condorg/gass/file_service.h"
#include "condorg/gram/client.h"
#include "condorg/gram/gatekeeper.h"
#include "condorg/sim/world.h"

namespace gram = condorg::gram;
namespace cb = condorg::batch;
namespace cg = condorg::gass;
namespace cs = condorg::sim;

namespace {

/// A submit machine + one GRAM site, with a GASS server holding the
/// executable and a callback sink collecting status updates.
struct GramFixture : public ::testing::Test {
  GramFixture()
      : submit(world.add_host("submit.wisc.edu")),
        site(world.add_host("gk.anl.gov")),
        cluster(std::make_unique<cb::FifoScheduler>(world.sim(), "pbs.anl",
                                                    16)),
        gatekeeper(
            std::make_unique<gram::Gatekeeper>(site, world.net(), *cluster)),
        gass(submit, world.net(), "gass"),
        client(submit, world.net(), "jfrey") {
    gass.store().put("bin/worker", "WORKER-BINARY", 1 << 20);
    submit.register_service("gram.cb", [this](const cs::Message& m) {
      callbacks.push_back({m.body.get("contact"), m.body.get("state")});
    });
  }

  gram::GramJobSpec spec(double runtime = 300.0) {
    gram::GramJobSpec s;
    s.executable = "bin/worker";
    s.output = "out/job.out";
    s.gass_url = gass.address().str();
    s.runtime_seconds = runtime;
    s.output_size = 4096;
    return s;
  }

  /// Submit and run the world until the callback sink has seen `state`.
  std::string submit_and_await(const std::string& state,
                               double deadline = 4000.0) {
    std::string contact;
    client.submit(gatekeeper->address(), spec(), {"submit.wisc.edu", "gram.cb"},
                  [&](auto c) { contact = c.answer.value_or(""); });
    await_state(state, deadline);
    return contact;
  }

  bool saw_state(const std::string& state) const {
    for (const auto& [contact, s] : callbacks) {
      if (s == state) return true;
    }
    return false;
  }

  void await_state(const std::string& state, double deadline) {
    while (!saw_state(state) && world.now() < deadline) {
      if (!world.sim().run_until(world.now() + 10.0)) break;
    }
  }

  /// One site probe for `contact`, given 60 s: the contact's state as
  /// reported, MISSING, "refused: <why>", or "silent" when the Gatekeeper
  /// did not answer.
  std::string probe_site(const std::string& contact) {
    std::string answer = "pending";
    client.status_all(gatekeeper->address(), {contact}, [&](auto report) {
      if (report.refused) {
        answer = "refused: " + *report.refused;
      } else if (!report.answer) {
        answer = "silent";
      } else if (report.answer->size() != 1) {
        answer = "malformed";
      } else {
        answer = report.answer->front()
                     ? gram::to_string(*report.answer->front())
                     : gram::kMissingState;
      }
    });
    world.sim().run_until(world.now() + 60.0);
    return answer;
  }

  cs::World world;
  cs::Host& submit;
  cs::Host& site;
  std::unique_ptr<cb::FifoScheduler> cluster;
  std::unique_ptr<gram::Gatekeeper> gatekeeper;
  cg::FileService gass;
  gram::GramClient client;
  std::vector<std::pair<std::string, std::string>> callbacks;
};

}  // namespace

// ---------- happy path ----------

TEST_F(GramFixture, SubmitRunsJobToCompletion) {
  const std::string contact = submit_and_await("DONE");
  EXPECT_FALSE(contact.empty());
  EXPECT_TRUE(saw_state("PENDING"));
  EXPECT_TRUE(saw_state("ACTIVE"));
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_EQ(gatekeeper->submissions_accepted(), 1u);
  // Output was staged back to the client's GASS server before DONE.
  EXPECT_TRUE(gass.store().contains("out/job.out"));
  EXPECT_EQ(gass.store().get("out/job.out")->size(), 4096u);
  // Exactly one local execution.
  EXPECT_EQ(cluster->history().size(), 1u);
}

TEST_F(GramFixture, StatusPollReflectsProgress) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  EXPECT_EQ(probe_site(contact), "ACTIVE");
}

TEST_F(GramFixture, CancelTerminatesJob) {
  const std::string contact = submit_and_await("ACTIVE");
  bool cancelled = false;
  client.cancel(contact, [&](bool ok) { cancelled = ok; });
  await_state("FAILED", world.now() + 500.0);
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_EQ(cluster->history().back().state, cb::JobState::kCancelled);
}

TEST_F(GramFixture, SitePolicyCapsWalltime) {
  gram::GatekeeperOptions options;
  options.max_walltime = 100.0;  // site caps runtime
  gatekeeper.reset();  // unregister before the replacement registers
  gatekeeper = std::make_unique<gram::Gatekeeper>(site, world.net(), *cluster,
                                                  options);
  std::string contact;
  client.submit(gatekeeper->address(), spec(1000.0),
                {"submit.wisc.edu", "gram.cb"},
                [&](auto c) { contact = c.answer.value_or(""); });
  await_state("FAILED", 4000.0);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_EQ(cluster->history().back().state,
            cb::JobState::kWalltimeExceeded);
}

TEST_F(GramFixture, MissingExecutableFailsJob) {
  gass.store().erase("bin/worker");
  gram::GramClientOptions fast;
  fast.retry_delay = 5.0;
  gram::GramClient impatient(submit, world.net(), "jfrey2", fast);
  std::string contact;
  impatient.submit(gatekeeper->address(), spec(),
                   {"submit.wisc.edu", "gram.cb"},
                   [&](auto c) { contact = c.answer.value_or(""); });
  // Staging retries 30x with 60s delay; fail arrives within ~2000s.
  await_state("FAILED", 30000.0);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_EQ(cluster->history().size(), 0u);  // never reached the scheduler
}

// ---------- two-phase commit / exactly-once ----------

TEST_F(GramFixture, LostResponsesDoNotDuplicateJobs) {
  // 30% message loss between submit machine and site.
  cs::LinkConfig lossy;
  lossy.loss_probability = 0.30;
  world.net().set_link("submit.wisc.edu", "gk.anl.gov", lossy);
  gram::GramClientOptions options;
  options.retry_delay = 10.0;
  gram::GramClient lossy_client(submit, world.net(), "lossy", options);

  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    lossy_client.submit(gatekeeper->address(), spec(100.0),
                        {"submit.wisc.edu", "gram.cb"},
                        [&](auto c) {
                          if (c.answer) ++completed;
                        });
  }
  world.sim().run();
  EXPECT_EQ(completed, 10);
  // Despite retransmissions, exactly 10 jobs entered the local scheduler.
  EXPECT_EQ(cluster->history().size(), 10u);
  EXPECT_EQ(gatekeeper->submissions_accepted(), 10u);
}

TEST_F(GramFixture, ResendWithSameSeqReturnsSameContact) {
  const std::uint64_t seq = client.allocate_seq();
  std::string first, second;
  client.submit_with_seq(seq, gatekeeper->address(), spec(50.0),
                         {"submit.wisc.edu", "gram.cb"},
                         [&](auto c) { first = c.answer.value_or(""); });
  world.sim().run_until(50.0);
  // Simulate crash recovery: re-drive the same sequence number.
  client.submit_with_seq(seq, gatekeeper->address(), spec(50.0),
                         {"submit.wisc.edu", "gram.cb"},
                         [&](auto c) { second = c.answer.value_or(""); });
  world.sim().run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(cluster->history().size(), 1u);
  EXPECT_GE(gatekeeper->duplicate_submissions(), 1u);
  EXPECT_EQ(client.contact_for_seq(seq), first);
}

TEST_F(GramFixture, OnePhaseModeWithoutDedupDuplicatesUnderLoss) {
  // The ablation: pre-revision GRAM. Lossy link + no dedup + no commit.
  gram::GatekeeperOptions gk_options;
  gk_options.dedup_submissions = false;
  gatekeeper.reset();  // unregister before the replacement registers
  gatekeeper = std::make_unique<gram::Gatekeeper>(site, world.net(), *cluster,
                                                  gk_options);
  cs::LinkConfig lossy;
  lossy.loss_probability = 0.5;
  world.net().set_link("submit.wisc.edu", "gk.anl.gov", lossy);

  gram::GramClientOptions options;
  options.two_phase = false;
  options.retry_delay = 5.0;
  gram::GramClient naive(submit, world.net(), "naive", options);
  int acked = 0;
  for (int i = 0; i < 20; ++i) {
    naive.submit(gatekeeper->address(), spec(50.0),
                 {"submit.wisc.edu", "gram.cb"},
                 [&](auto c) { acked += c.answer ? 1 : 0; });
  }
  world.sim().run();
  // Lost *responses* caused retransmissions that became extra jobs.
  EXPECT_GT(cluster->history().size(), 20u);
}

// ---------- the four failure types (§4.2) ----------

TEST_F(GramFixture, F1JobManagerCrashJobSurvivesAndReattaches) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  // Kill only the JobManager process; the local job keeps running.
  ASSERT_TRUE(gatekeeper->kill_jobmanager(contact));
  // The gatekeeper still answers, reporting the contact MISSING: that
  // distinguishes F1 from F2/F4...
  EXPECT_EQ(probe_site(contact), "MISSING");
  // ...so the client asks for a JobManager restart and the job completes.
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  await_state("DONE", 4000.0);
  EXPECT_TRUE(state.has_value());
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_EQ(cluster->history().size(), 1u);  // exactly-once
}

TEST_F(GramFixture, F2SiteFrontEndCrashJobCompletesWhileDown) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  site.crash();
  // The local cluster is a separate failure domain: the job completes
  // while the front-end is down.
  world.sim().run_until(world.now() + 600.0);
  EXPECT_EQ(cluster->history().size(), 1u);
  EXPECT_EQ(cluster->history()[0].state, cb::JobState::kCompleted);
  // Front-end returns; a restarted JobManager reports DONE (after
  // re-staging output).
  site.restart();
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  await_state("DONE", world.now() + 2000.0);
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_TRUE(gass.store().contains("out/job.out"));
}

TEST_F(GramFixture, F4PartitionJobUnaffectedAndReconnects) {
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  world.net().set_partitioned("submit.wisc.edu", "gk.anl.gov", true);
  // During a partition the client cannot distinguish F2 from F4: the site
  // probe meets silence.
  EXPECT_EQ(probe_site(contact), "silent");
  // Job completes during the partition; output staging retries.
  world.sim().run_until(world.now() + 600.0);
  EXPECT_EQ(cluster->history().size(), 1u);
  world.net().set_partitioned("submit.wisc.edu", "gk.anl.gov", false);
  await_state("DONE", world.now() + 4000.0);
  EXPECT_TRUE(saw_state("DONE"));
}

TEST_F(GramFixture, RestartUnknownContactFails) {
  std::optional<gram::GramJobState> state =
      gram::GramJobState::kActive;  // sentinel
  client.restart_jobmanager("gk.anl.gov:999", [&](auto s) { state = s; });
  world.sim().run_until(100.0);
  EXPECT_FALSE(state.has_value());
}

TEST_F(GramFixture, UpdateGassRedirectsOutput) {
  // New GASS endpoint appears (submit machine "restarted" elsewhere);
  // output must land at the new address.
  cg::FileService gass2(submit, world.net(), "gass2");
  gass2.store().put("bin/worker", "WORKER-BINARY", 1 << 20);
  const std::string contact = submit_and_await("ACTIVE");
  bool updated = false;
  client.update_gass(contact, gass2.address(), [&](bool ok) { updated = ok; });
  await_state("DONE", 4000.0);
  EXPECT_TRUE(updated);
  EXPECT_TRUE(gass2.store().contains("out/job.out"));
}

// A JobManager keeps two records: the description, rewritten only on
// jm.update_gass and jm.refresh_credential, and the state, rewritten on
// every transition. A front-end crash after either update must restart the
// JobManager with the update and with its last state.
TEST_F(GramFixture, FrontEndRestartKeepsUpdatedGassAndCredential) {
  cg::FileService gass2(submit, world.net(), "gass2");
  const std::string contact = submit_and_await("ACTIVE");
  ASSERT_FALSE(contact.empty());
  const auto crash_and_restart = [&] {
    site.crash();
    site.restart();
    std::optional<gram::GramJobState> state;
    client.restart_jobmanager(contact, [&](auto s) { state = s; });
    world.sim().run_until(world.now() + 5.0);
    EXPECT_EQ(state, gram::GramJobState::kActive);
    return gatekeeper->find_jobmanager(contact);
  };

  bool updated = false;
  client.update_gass(contact, gass2.address(), [&](bool ok) { updated = ok; });
  world.sim().run_until(world.now() + 5.0);
  ASSERT_TRUE(updated);
  const gram::JobManager* jm = crash_and_restart();
  ASSERT_NE(jm, nullptr);
  EXPECT_EQ(jm->spec().gass_url, gass2.address().str());
  EXPECT_EQ(jm->state(), gram::GramJobState::kActive);
  EXPECT_TRUE(jm->committed());
  EXPECT_NE(jm->local_job_id(), 0u);

  bool refreshed = false;
  client.set_credential_text("refreshed-proxy");
  client.refresh_remote_credential(contact,
                                   [&](bool ok) { refreshed = ok; });
  world.sim().run_until(world.now() + 5.0);
  ASSERT_TRUE(refreshed);
  jm = crash_and_restart();
  ASSERT_NE(jm, nullptr);
  EXPECT_EQ(jm->forwarded_credential(), "refreshed-proxy");
  EXPECT_EQ(jm->spec().gass_url, gass2.address().str());
  EXPECT_EQ(jm->state(), gram::GramJobState::kActive);

  await_state("DONE", 4000.0);
  EXPECT_TRUE(gass2.store().contains("out/job.out"));
  EXPECT_EQ(cluster->history().size(), 1u);  // exactly-once
}

TEST_F(GramFixture, AuditFlagsAStateRecordThatLags) {
  const std::string contact = submit_and_await("PENDING");
  ASSERT_FALSE(contact.empty());
  const std::string key = gram::JobManager::state_key(contact);
  const auto pending = site.disk().get(key);
  ASSERT_TRUE(pending.has_value());
  await_state("ACTIVE", 4000.0);
  const gram::JobManager* jm = gatekeeper->find_jobmanager(contact);
  ASSERT_NE(jm, nullptr);
  std::vector<std::string> problems;
  jm->audit(problems);
  EXPECT_TRUE(problems.empty());
  // Rewind the state record: a restart would now rebuild a PENDING job.
  site.disk().put(key, *pending);
  jm->audit(problems);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("persisted state PENDING but is ACTIVE"),
            std::string::npos)
      << problems[0];
}

// ---------- GSI-protected gatekeeper ----------

TEST(GramAuth, UnauthorizedSubmitRejected) {
  cs::World world;
  cs::Host& submit = world.add_host("submit");
  cs::Host& site = world.add_host("site");
  cb::FifoScheduler cluster(world.sim(), "pbs", 4);

  condorg::gsi::Pki pki((condorg::util::Rng(5)));
  condorg::gsi::CertificateAuthority ca(pki, "/CN=CA");
  const auto user = ca.issue(pki, "/O=UW/CN=ok", 0.0, 86400.0);
  const auto outsider = ca.issue(pki, "/O=X/CN=eve", 0.0, 86400.0);

  gram::GatekeeperOptions options;
  options.auth.pki = &pki;
  options.auth.anchors[ca.name()] = ca.public_key();
  options.auth.gridmap.add("/O=UW/CN=ok", "okuser");
  options.auth.require_auth = true;
  gram::Gatekeeper gatekeeper(site, world.net(), cluster, options);

  cg::FileService gass(submit, world.net(), "gass");
  gass.store().put("exe", "X");

  gram::GramJobSpec spec;
  spec.executable = "exe";
  spec.gass_url = gass.address().str();
  spec.runtime_seconds = 10;
  spec.output = "";

  gram::GramClientOptions copt;
  copt.max_attempts = 1;
  gram::GramClient good(submit, world.net(), "good", copt);
  good.set_credential(user.delegate(pki, 0.0, 3600.0));
  gram::GramClient bad(submit, world.net(), "bad", copt);
  bad.set_credential(outsider.delegate(pki, 0.0, 3600.0));

  gram::SiteReply<std::string> good_reply, bad_reply;
  good.submit(gatekeeper.address(), spec, {"submit", "cb"},
              [&](auto c) { good_reply = c; });
  bad.submit(gatekeeper.address(), spec, {"submit", "cb"},
             [&](auto c) { bad_reply = c; });
  world.sim().run();
  EXPECT_TRUE(good_reply.answer.has_value());
  EXPECT_FALSE(bad_reply.answer.has_value());
  // Refused with the Gatekeeper's reason, which silence would not carry.
  EXPECT_EQ(bad_reply.refused, "identity not authorized: /O=X/CN=eve");
  EXPECT_EQ(gatekeeper.auth_failures(), 1u);
  EXPECT_EQ(cluster.history().size(), 1u);
}

// ---------- additional recovery corner cases ----------

TEST_F(GramFixture, DuplicateDoneCallbacksAreIdempotent) {
  const std::string contact = submit_and_await("DONE");
  const auto done_count = [&] {
    std::size_t n = 0;
    for (const auto& [c, s] : callbacks) {
      if (s == "DONE") ++n;
    }
    return n;
  };
  const auto before = done_count();
  // A replacement JobManager for an already-terminal job re-reports DONE.
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  world.sim().run_until(world.now() + 100.0);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(*state, gram::GramJobState::kDone);
  EXPECT_GE(done_count(), before);      // re-reported...
  EXPECT_EQ(cluster->history().size(), 1u);  // ...but never re-run
}

TEST_F(GramFixture, CancelBeforeCommitFailsJobWithoutExecution) {
  // Submit in one-phase-off mode manually: send gram.submit but never
  // commit; then cancel. The job must never reach the scheduler.
  std::string contact;
  {
    cs::RpcClient raw(submit, world.net(), "raw.rpc");
    cs::Payload payload;
    payload.set("client_id", "raw");
    payload.set_uint("seq", 1);
    payload.set_bool("two_phase", true);
    payload.set("callback", "submit.wisc.edu/gram.cb");
    spec().to_payload(payload);
    raw.call(gatekeeper->address(), "gram.submit", std::move(payload), 30.0,
             [&](cs::RpcOutcome outcome, const cs::Payload& reply) {
               if (outcome == cs::RpcOutcome::kAnswered) {
                 contact = reply.get("contact");
               }
             });
    world.sim().run_until(world.now() + 60.0);
  }
  ASSERT_FALSE(contact.empty());
  bool cancelled = false;
  client.cancel(contact, [&](bool ok) { cancelled = ok; });
  await_state("FAILED", world.now() + 500.0);
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(saw_state("FAILED"));
  EXPECT_TRUE(cluster->history().empty());
}

TEST_F(GramFixture, JobManagerCrashDuringStageInRecovers) {
  // Crash the front-end while the JobManager is fetching the executable;
  // the restarted JobManager redoes staging from its persisted record.
  cs::LinkConfig slow;
  slow.latency = 5.0;  // staging takes a while
  slow.jitter = 0.0;
  world.net().set_default_link(slow);
  std::string contact;
  client.submit(gatekeeper->address(), spec(100.0),
                {"submit.wisc.edu", "gram.cb"},
                [&](auto c) { contact = c.answer.value_or(""); });
  world.sim().run_until(130.0);  // submit+commit done; stage-in in flight
  site.crash();
  world.sim().run_until(200.0);
  site.restart();
  // Drive recovery as the GridManager would.
  ASSERT_FALSE(contact.empty());
  client.restart_jobmanager(contact, [](auto) {});
  await_state("DONE", 6000.0);
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_EQ(cluster->history().size(), 1u);
}

TEST_F(GramFixture, RestartWhileJobStillQueuedReportsPending) {
  // Fill the cluster so our job queues; crash + restart the JM; the
  // reattached JM must report PENDING, not fail the job.
  for (int i = 0; i < 16; ++i) {
    condorg::batch::JobRequest hog;
    hog.owner = "local";
    hog.runtime_seconds = 5000.0;
    cluster->submit(std::move(hog));
  }
  std::string contact;
  client.submit(gatekeeper->address(), spec(50.0),
                {"submit.wisc.edu", "gram.cb"},
                [&](auto c) { contact = c.answer.value_or(""); });
  await_state("PENDING", 1000.0);
  ASSERT_FALSE(contact.empty());
  ASSERT_TRUE(gatekeeper->kill_jobmanager(contact));
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  world.sim().run_until(world.now() + 100.0);
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(*state, gram::GramJobState::kPending);
  await_state("DONE", 20000.0);
  EXPECT_TRUE(saw_state("DONE"));
}

// ---------- real-time stdout streaming (§3.2) ----------

TEST_F(GramFixture, StdoutStreamsWhileActive) {
  gram::GramJobSpec streaming = spec(600.0);
  streaming.stream_interval = 60.0;
  std::string contact;
  client.submit(gatekeeper->address(), streaming,
                {"submit.wisc.edu", "gram.cb"},
                [&](auto c) { contact = c.answer.value_or(""); });
  await_state("ACTIVE", 2000.0);
  const double active_at = world.now();
  world.sim().run_until(active_at + 300.0);
  // Output is already visible at the client, mid-run.
  const auto partial = gass.store().get("out/job.out.stream");
  ASSERT_TRUE(partial.has_value());
  EXPECT_NE(partial->content.find("chunk 1 of"), std::string::npos);
  EXPECT_GE(partial->content.find("chunk 4 of"), 0u);
  await_state("DONE", 4000.0);
  EXPECT_TRUE(saw_state("DONE"));
}

TEST_F(GramFixture, StreamedOutputResentToNewGassServer) {
  gram::GramJobSpec streaming = spec(1200.0);
  streaming.stream_interval = 60.0;
  std::string contact;
  client.submit(gatekeeper->address(), streaming,
                {"submit.wisc.edu", "gram.cb"},
                [&](auto c) { contact = c.answer.value_or(""); });
  await_state("ACTIVE", 2000.0);
  world.sim().run_until(world.now() + 400.0);  // several chunks streamed
  const auto old_copy = gass.store().get("out/job.out.stream");
  ASSERT_TRUE(old_copy.has_value());
  const std::size_t streamed_so_far = old_copy->content.size();
  ASSERT_GT(streamed_so_far, 0u);

  // The client "restarts" with a fresh, empty GASS server: update + resend.
  cg::FileService gass2(submit, world.net(), "gass2");
  ASSERT_FALSE(contact.empty());
  bool updated = false;
  client.update_gass(contact, gass2.address(), [&](bool ok) { updated = ok; });
  world.sim().run_until(world.now() + 120.0);
  ASSERT_TRUE(updated);
  const auto resent = gass2.store().get("out/job.out.stream");
  ASSERT_TRUE(resent.has_value());
  // Everything streamed before the move was resent (no gaps)...
  EXPECT_GE(resent->content.size(), streamed_so_far);
  EXPECT_NE(resent->content.find("chunk 1 of"), std::string::npos);
  // ...and streaming continues to the new server.
  const std::size_t at_switch = resent->content.size();
  world.sim().run_until(world.now() + 300.0);
  EXPECT_GT(gass2.store().get("out/job.out.stream")->content.size(),
            at_switch);
}

TEST_F(GramFixture, StreamSurvivesJobManagerRestartWithoutDuplicates) {
  gram::GramJobSpec streaming = spec(900.0);
  streaming.stream_interval = 60.0;
  std::string contact;
  client.submit(gatekeeper->address(), streaming,
                {"submit.wisc.edu", "gram.cb"},
                [&](auto c) { contact = c.answer.value_or(""); });
  await_state("ACTIVE", 2000.0);
  world.sim().run_until(world.now() + 250.0);
  ASSERT_TRUE(gatekeeper->kill_jobmanager(contact));
  world.sim().run_until(world.now() + 100.0);
  client.restart_jobmanager(contact, [](auto) {});
  await_state("DONE", 6000.0);
  ASSERT_TRUE(saw_state("DONE"));
  // Sequence-numbered appends: every chunk appears exactly once, in order.
  const auto stream = gass.store().get("out/job.out.stream");
  ASSERT_TRUE(stream.has_value());
  std::size_t pos = 0;
  int expected = 1;
  while (true) {
    const std::string needle = "chunk " + std::to_string(expected) + " of";
    const auto found = stream->content.find(needle, pos);
    if (found == std::string::npos) break;
    pos = found + needle.size();
    ++expected;
  }
  EXPECT_GE(expected, 4);  // several chunks
  // No chunk number appears twice.
  for (int c = 1; c < expected; ++c) {
    const std::string needle = "chunk " + std::to_string(c) + " of";
    const auto first = stream->content.find(needle);
    EXPECT_EQ(stream->content.find(needle, first + 1), std::string::npos)
        << "duplicate " << needle;
  }
}

// ---------- when PENDING->ACTIVE is observed ----------
//
// The JobManager observes a local start on a 15 s grid anchored at the
// time it began watching the job (watch + 15 s * k, k >= 1). These cases
// pin the observed instants, which do not depend on how the grid is
// implemented.

namespace {

/// Simulated times of the JobManager's transitions into `state`, read from
/// its jm.state trace records ("<STATE>: <why>").
std::vector<double> jm_state_times(const cs::Tracer& tracer,
                                   const std::string& state) {
  std::vector<double> times;
  for (const auto& record : tracer.records()) {
    if (record.name == "jm.state" && record.detail.rfind(state + ":", 0) == 0) {
      times.push_back(record.t);
    }
  }
  return times;
}

/// The first grid instant of a JobManager watching since `watch` at or
/// after `start` (built by repeated addition, as the JobManager does).
double first_instant(double watch, double start) {
  double t = watch + 15.0;
  while (t < start) t += 15.0;
  return t;
}

/// Occupy every CPU of the fixture's 16-CPU cluster with local jobs.
std::vector<std::uint64_t> fill_cluster(cb::LocalScheduler& cluster,
                                        double runtime) {
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < cluster.total_cpus(); ++i) {
    cb::JobRequest hog;
    hog.owner = "local";
    hog.runtime_seconds = runtime;
    ids.push_back(cluster.submit(std::move(hog)));
  }
  return ids;
}

/// The local scheduler's record of the GRAM job behind `contact`.
std::optional<cb::JobRecord> local_record(const cb::LocalScheduler& cluster,
                                          const std::string& contact) {
  for (std::uint64_t id = 1;; ++id) {
    const auto record = cluster.status(id);
    if (!record || record->request.tag == contact) return record;
  }
}

}  // namespace

TEST_F(GramFixture, JobStartedAtSubmitGoesActiveOneStepAfterWatch) {
  world.sim().tracer().set_enabled(true);
  const std::string contact = submit_and_await("DONE");
  const auto local = local_record(*cluster, contact);
  ASSERT_TRUE(local.has_value());
  // Free CPUs: the job started as the JobManager queued it and began
  // watching.
  const double watch = local->submit_time;
  EXPECT_EQ(local->start_time, watch);
  EXPECT_EQ(jm_state_times(world.sim().tracer(), "PENDING"),
            std::vector<double>{watch});
  EXPECT_EQ(jm_state_times(world.sim().tracer(), "ACTIVE"),
            std::vector<double>{watch + 15.0});
}

TEST_F(GramFixture, StartBetweenGridInstantsGoesActiveAtTheNextOne) {
  world.sim().tracer().set_enabled(true);
  fill_cluster(*cluster, 100.0);
  const std::string contact = submit_and_await("DONE");
  const auto local = local_record(*cluster, contact);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(local->start_time, 100.0);
  const double instant = first_instant(local->submit_time, 100.0);
  EXPECT_GT(instant, 100.0);  // the start fell between two instants
  EXPECT_EQ(jm_state_times(world.sim().tracer(), "ACTIVE"),
            std::vector<double>{instant});
}

TEST_F(GramFixture, StartOnGridInstantGoesActiveAtThatInstant) {
  world.sim().tracer().set_enabled(true);
  const auto hogs = fill_cluster(*cluster, 1e6);
  const std::string contact = submit_and_await("PENDING", 1000.0);
  const auto local = local_record(*cluster, contact);
  ASSERT_TRUE(local.has_value());
  // Free a CPU exactly on a grid instant, by an event scheduled now: before
  // the instant ahead of it, so before a poll at `instant` would be armed.
  const double instant = first_instant(local->submit_time, world.now() + 15.0);
  ASSERT_GT(instant - 15.0, world.now());
  world.sim().schedule_at(instant, [&] { cluster->cancel(hogs[0]); });
  await_state("DONE", instant + 4000.0);
  EXPECT_EQ(cluster->status(local->id)->start_time, instant);
  EXPECT_EQ(jm_state_times(world.sim().tracer(), "ACTIVE"),
            std::vector<double>{instant});
}

TEST_F(GramFixture, StartAndFinishBetweenInstantsReportsDoneWithoutActive) {
  world.sim().tracer().set_enabled(true);
  const auto hogs = fill_cluster(*cluster, 1e6);
  std::string contact;
  client.submit(gatekeeper->address(), spec(5.0),
                {"submit.wisc.edu", "gram.cb"},
                [&](auto c) { contact = c.answer.value_or(""); });
  await_state("PENDING", 1000.0);
  const auto local = local_record(*cluster, contact);
  ASSERT_TRUE(local.has_value());
  // Start 2 s after a grid instant; 5 s later the job is done, 8 s before
  // the next instant.
  const double instant = first_instant(local->submit_time, world.now() + 15.0);
  world.sim().schedule_at(instant + 2.0, [&] { cluster->cancel(hogs[0]); });
  await_state("DONE", instant + 4000.0);
  const auto ran = cluster->status(local->id);
  EXPECT_EQ(ran->start_time, instant + 2.0);
  EXPECT_EQ(ran->state, cb::JobState::kCompleted);
  EXPECT_LT(ran->end_time, instant + 15.0);
  EXPECT_TRUE(saw_state("DONE"));
  EXPECT_FALSE(saw_state("ACTIVE"));
  EXPECT_TRUE(jm_state_times(world.sim().tracer(), "ACTIVE").empty());
  EXPECT_TRUE(gass.store().contains("out/job.out"));
}

TEST_F(GramFixture, RestartWhileQueuedRebasesGridAtReattach) {
  // The restart also replaces and frees the killed JobManager: a start
  // handler it left registered would run on freed memory when the job
  // starts (caught under ASan).
  world.sim().tracer().set_enabled(true);
  const auto hogs = fill_cluster(*cluster, 1e6);
  const std::string contact = submit_and_await("PENDING", 1000.0);
  const auto local = local_record(*cluster, contact);
  ASSERT_TRUE(local.has_value());
  ASSERT_TRUE(gatekeeper->kill_jobmanager(contact));
  world.sim().run_until(world.now() + 7.0);
  std::optional<gram::GramJobState> state;
  client.restart_jobmanager(contact, [&](auto s) { state = s; });
  world.sim().run_until(world.now() + 10.0);
  ASSERT_TRUE(state.has_value());
  ASSERT_EQ(*state, gram::GramJobState::kPending);
  // PENDING was recorded at the first watch and again at the reattach.
  const auto pending = jm_state_times(world.sim().tracer(), "PENDING");
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0], local->submit_time);
  const double reattach = pending[1];
  const double start = world.now() + 20.0;
  world.sim().schedule_at(start, [&] { cluster->cancel(hogs[0]); });
  await_state("DONE", start + 4000.0);
  const double instant = first_instant(reattach, start);
  EXPECT_NE(instant, first_instant(local->submit_time, start));
  EXPECT_EQ(jm_state_times(world.sim().tracer(), "ACTIVE"),
            std::vector<double>{instant});
}

// ---------- what the observation costs ----------

namespace {

/// Events one GRAM job of `runtime` seconds dispatches, submit to DONE,
/// with GRAM alone: no GridManager probes, no output streaming.
std::uint64_t events_for_one_job(double runtime) {
  cs::World world;
  cs::Host& submit = world.add_host("submit");
  cs::Host& site = world.add_host("site");
  cb::FifoScheduler cluster(world.sim(), "pbs", 4);
  gram::Gatekeeper gatekeeper(site, world.net(), cluster);
  cg::FileService gass(submit, world.net(), "gass");
  gass.store().put("exe", "X");
  std::vector<std::string> states;
  submit.register_service("cb", [&](const cs::Message& m) {
    states.push_back(m.body.get("state"));
  });
  gram::GramClient client(submit, world.net(), "user");
  gram::GramJobSpec spec;
  spec.executable = "exe";
  spec.gass_url = gass.address().str();
  spec.runtime_seconds = runtime;
  spec.output = "";
  spec.stream_interval = 0;
  client.submit(gatekeeper.address(), spec, {"submit", "cb"}, [](auto) {});
  world.sim().run();
  EXPECT_EQ(states,
            (std::vector<std::string>{"STAGE_IN", "PENDING", "ACTIVE", "DONE"}));
  return world.sim().dispatched();
}

}  // namespace

TEST(GramObservation, EventCountDoesNotGrowWithRuntime) {
  // A poll would add (14,400 - 600) / 15 = 920 events to the long job.
  EXPECT_EQ(events_for_one_job(14400.0), events_for_one_job(600.0));
}
