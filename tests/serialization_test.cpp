// Round-trip and determinism properties: everything written to stable
// storage or the wire must survive serialize/deserialize unchanged, and
// whole-world runs must be bit-identical for identical seeds (the property
// crash-recovery verification rests on).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "condorg/classad/parser.h"
#include "condorg/core/agent.h"
#include "condorg/core/broker.h"
#include "condorg/core/job.h"
#include "condorg/gram/protocol.h"
#include "condorg/sim/message.h"
#include "condorg/workloads/grid_builder.h"

namespace classad = condorg::classad;
namespace core = condorg::core;
namespace cs = condorg::sim;
namespace gram = condorg::gram;
namespace cw = condorg::workloads;

// ---------- Payload ----------

TEST(PayloadSerde, RoundTripAllTypes) {
  cs::Payload p;
  p.set("s", "hello world");
  p.set_int("i", -123456789);
  p.set_uint("u", 0xFFFFFFFFFFFFFFFFull);
  p.set_double("d", 3.14159265358979);
  p.set_bool("b", true);
  p.set("empty", "");
  const cs::Payload q = cs::Payload::deserialize(p.serialize());
  EXPECT_EQ(q.get("s"), "hello world");
  EXPECT_EQ(q.get_int("i"), -123456789);
  EXPECT_EQ(q.get_uint("u"), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_DOUBLE_EQ(q.get_double("d"), 3.14159265358979);
  EXPECT_TRUE(q.get_bool("b"));
  EXPECT_TRUE(q.has("empty"));
  EXPECT_EQ(q.fields().size(), p.fields().size());
}

TEST(PayloadSerde, EmptyAndGarbage) {
  EXPECT_TRUE(cs::Payload::deserialize("").fields().empty());
  // Garbage without separators: silently ignored fields, no crash.
  const cs::Payload q = cs::Payload::deserialize("no-separators-here");
  EXPECT_TRUE(q.fields().empty());
}

// ---------- numbers ----------

namespace {

// One formatter writes every number that is read back (util::format_double);
// each of these must come back with the same bit pattern, which
// EXPECT_DOUBLE_EQ (4 ulps, and -0.0 == 0.0) would not check.
const double kRoundTripNumbers[] = {
    0.1,
    1.0 / 3.0,
    5e-324,  // the smallest subnormal, which std::stod refuses
    std::numeric_limits<double>::max(),
    -0.0,
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    1e15,
    123.5,
};

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

}  // namespace

TEST(NumberSerde, PayloadDoublesRoundTripBitExactly) {
  for (const double value : kRoundTripNumbers) {
    cs::Payload p;
    p.set_double("x", value);
    const cs::Payload q = cs::Payload::deserialize(p.serialize());
    EXPECT_EQ(bits(q.get_double("x", 42.0)), bits(value)) << p.get("x");
  }
}

TEST(NumberSerde, ClassAdRealsRoundTripBitExactly) {
  for (const double value : kRoundTripNumbers) {
    classad::ClassAd ad;
    ad.insert_real("X", value);
    const std::string text = ad.unparse();
    const classad::Value back = classad::parse_ad(text).eval("X");
    ASSERT_TRUE(back.is_real()) << text;
    EXPECT_EQ(bits(back.as_real()), bits(value)) << text;
  }
  // An integral real keeps its ".0", so it reads back as a real.
  EXPECT_EQ(classad::Value::real(3.0).unparse(), "3.0");
  EXPECT_EQ(classad::Value::real(-0.0).unparse(), "-0.0");
}

// ---------- GramJobSpec ----------

TEST(GramSpecSerde, RoundTrip) {
  gram::GramJobSpec spec;
  spec.executable = "bin/x";
  spec.output = "out/y";
  spec.gass_url = "host/gass";
  spec.runtime_seconds = 123.5;
  spec.walltime_limit = 4567.0;
  spec.cpus = 7;
  spec.output_size = 1 << 30;
  spec.tag = "job42";
  cs::Payload payload;
  spec.to_payload(payload);
  const gram::GramJobSpec back = gram::GramJobSpec::from_payload(payload);
  EXPECT_EQ(back.executable, spec.executable);
  EXPECT_EQ(back.output, spec.output);
  EXPECT_EQ(back.gass_url, spec.gass_url);
  EXPECT_DOUBLE_EQ(back.runtime_seconds, spec.runtime_seconds);
  EXPECT_DOUBLE_EQ(back.walltime_limit, spec.walltime_limit);
  EXPECT_EQ(back.cpus, spec.cpus);
  EXPECT_EQ(back.output_size, spec.output_size);
  EXPECT_EQ(back.tag, spec.tag);
}

// ---------- core::Job ----------

TEST(JobSerde, RoundTripFullRecord) {
  core::Job job;
  job.id = 42;
  job.desc.universe = core::Universe::kVanilla;
  job.desc.owner = "miron";
  job.desc.executable = "worker";
  job.desc.output = "out.dat";
  job.desc.runtime_seconds = 999.25;
  job.desc.cpus = 4;
  job.desc.walltime_limit = 3600.0;
  job.desc.output_size = 123456;
  job.desc.grid_site = "pbs.anl.gov";
  job.desc.ad.insert_expr("Requirements", "other.Memory > 64");
  job.desc.max_attempts = 3;
  job.desc.notify_email = true;
  job.desc.tag = "unit-7";
  job.status = core::JobStatus::kHeld;
  job.hold_reason = "credential expired or expiring";
  job.attempts = 2;
  job.gram_seq = 17;
  job.gram_contact = "pbs.anl.gov:9";
  job.gram_site = "pbs.anl.gov";
  job.remote_state = "ACTIVE";
  job.checkpointed_work = 123.0;
  job.submit_time = 10.0;
  job.first_execute_time = 20.0;
  job.completion_time = -1;

  const core::Job back =
      core::Job::from_records(job.description_record(), job.state_record());
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.desc.universe, job.desc.universe);
  EXPECT_EQ(back.desc.owner, job.desc.owner);
  EXPECT_DOUBLE_EQ(back.desc.runtime_seconds, job.desc.runtime_seconds);
  EXPECT_EQ(back.desc.cpus, job.desc.cpus);
  EXPECT_EQ(back.desc.grid_site, job.desc.grid_site);
  EXPECT_EQ(back.desc.max_attempts, job.desc.max_attempts);
  EXPECT_TRUE(back.desc.notify_email);
  EXPECT_EQ(back.desc.tag, job.desc.tag);
  EXPECT_EQ(back.status, core::JobStatus::kHeld);
  EXPECT_EQ(back.hold_reason, job.hold_reason);
  EXPECT_EQ(back.attempts, 2);
  EXPECT_EQ(back.gram_seq, 17u);
  EXPECT_EQ(back.gram_contact, "pbs.anl.gov:9");
  EXPECT_EQ(back.remote_state, "ACTIVE");
  EXPECT_DOUBLE_EQ(back.checkpointed_work, 123.0);
  EXPECT_DOUBLE_EQ(back.first_execute_time, 20.0);
  EXPECT_DOUBLE_EQ(back.completion_time, -1.0);
  // The requirements ad survives (re-parsed).
  EXPECT_TRUE(back.desc.ad.contains("Requirements"));
}

TEST(JobSerde, StateStringsRoundTrip) {
  for (const auto status :
       {core::JobStatus::kIdle, core::JobStatus::kRunning,
        core::JobStatus::kHeld, core::JobStatus::kCompleted,
        core::JobStatus::kRemoved}) {
    EXPECT_EQ(core::status_from_string(core::to_string(status)), status);
  }
  for (const auto universe :
       {core::Universe::kGrid, core::Universe::kVanilla}) {
    EXPECT_EQ(core::universe_from_string(core::to_string(universe)),
              universe);
  }
  for (const auto state :
       {gram::GramJobState::kUnsubmitted, gram::GramJobState::kStageIn,
        gram::GramJobState::kPending, gram::GramJobState::kActive,
        gram::GramJobState::kDone, gram::GramJobState::kFailed}) {
    EXPECT_EQ(gram::gram_state_from_string(gram::to_string(state)), state);
  }
}

// ---------- whole-world determinism ----------

namespace {

/// Run a small campaign with failures and return a trace fingerprint.
std::string run_fingerprint(std::uint64_t seed) {
  cw::GridTestbed testbed(seed);
  cw::SiteSpec spec;
  spec.name = "pbs.anl.gov";
  spec.cpus = 8;
  spec.background_load = true;
  testbed.add_site(spec);
  spec.name = "lsf.ncsa.edu";
  testbed.add_site(spec);
  testbed.add_submit_host("submit");
  core::CondorGAgent agent(testbed.world(), "submit");
  agent.set_site_chooser(core::make_static_chooser(testbed.gatekeepers()));
  agent.start();
  for (int i = 0; i < 10; ++i) {
    core::JobDescription job;
    job.universe = core::Universe::kGrid;
    job.runtime_seconds = 1000.0 + 100.0 * i;
    agent.submit(job);
  }
  testbed.world().sim().schedule_at(1500.0, [&] {
    testbed.site(0).frontend->crash_for(600.0);
  });
  while (!agent.schedd().all_terminal() &&
         testbed.world().now() < 2 * 86400.0) {
    testbed.world().sim().run_until(testbed.world().now() + 200.0);
  }
  std::string trace;
  for (const auto& event : agent.log().events()) {
    trace += condorg::util::format(
        "%.3f/%llu/%s/%s;", event.time,
        static_cast<unsigned long long>(event.job_id),
        core::to_string(event.kind), event.detail.c_str());
  }
  trace += condorg::util::format("|dispatched=%llu",
                                 static_cast<unsigned long long>(
                                     testbed.world().sim().dispatched()));
  return trace;
}

}  // namespace

TEST(Determinism, IdenticalSeedsIdenticalTraces) {
  EXPECT_EQ(run_fingerprint(101), run_fingerprint(101));
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_fingerprint(101), run_fingerprint(202));
}
