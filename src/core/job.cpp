#include "condorg/core/job.h"

#include <charconv>
#include <vector>

#include "condorg/classad/parser.h"
#include "condorg/util/strings.h"

namespace condorg::core {

const char* to_string(Universe universe) {
  switch (universe) {
    case Universe::kGrid: return "grid";
    case Universe::kVanilla: return "vanilla";
  }
  return "?";
}

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::kIdle: return "IDLE";
    case JobStatus::kRunning: return "RUNNING";
    case JobStatus::kHeld: return "HELD";
    case JobStatus::kCompleted: return "COMPLETED";
    case JobStatus::kRemoved: return "REMOVED";
  }
  return "?";
}

Universe universe_from_string(const std::string& text) {
  return text == "vanilla" ? Universe::kVanilla : Universe::kGrid;
}

JobStatus status_from_string(const std::string& text) {
  if (text == "IDLE") return JobStatus::kIdle;
  if (text == "RUNNING") return JobStatus::kRunning;
  if (text == "HELD") return JobStatus::kHeld;
  if (text == "COMPLETED") return JobStatus::kCompleted;
  return JobStatus::kRemoved;
}

namespace {
constexpr char kStateSep = '\x1f';
constexpr std::size_t kStateFields = 10;

template <typename Int>
Int parse_int(std::string_view text) {
  Int value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}
}  // namespace

std::string Job::description_record() const {
  sim::Payload p;
  p.set_uint("id", id);
  p.set("universe", to_string(desc.universe));
  p.set("owner", desc.owner);
  p.set("executable", desc.executable);
  p.set("output", desc.output);
  p.set_double("runtime", desc.runtime_seconds);
  p.set_int("cpus", desc.cpus);
  p.set_double("walltime", desc.walltime_limit);
  p.set_uint("output_size", desc.output_size);
  p.set_uint("executable_size", desc.executable_size);
  p.set("grid_site_fixed", desc.grid_site);
  p.set("ad", desc.ad.unparse());
  p.set_int("max_attempts", desc.max_attempts);
  p.set_bool("notify_email", desc.notify_email);
  p.set("tag", desc.tag);
  p.set_double("submit_time", submit_time);
  return p.serialize();
}

std::string Job::state_record() const {
  std::string out = to_string(status);
  out += kStateSep;
  out += hold_reason;
  out += kStateSep;
  out += std::to_string(attempts);
  out += kStateSep;
  out += std::to_string(gram_seq);
  out += kStateSep;
  out += gram_contact;
  out += kStateSep;
  out += gram_site;
  out += kStateSep;
  out += remote_state;
  out += kStateSep;
  util::append_double(out, checkpointed_work);
  out += kStateSep;
  util::append_double(out, first_execute_time);
  out += kStateSep;
  util::append_double(out, completion_time);
  return out;
}

Job Job::from_records(const std::string& description, std::string_view state) {
  const sim::Payload p = sim::Payload::deserialize(description);
  Job job;
  job.id = p.get_uint("id");
  job.desc.universe = universe_from_string(p.get("universe"));
  job.desc.owner = p.get("owner");
  job.desc.executable = p.get("executable");
  job.desc.output = p.get("output");
  job.desc.runtime_seconds = p.get_double("runtime");
  job.desc.cpus = static_cast<int>(p.get_int("cpus", 1));
  job.desc.walltime_limit = p.get_double("walltime", 1e18);
  job.desc.output_size = p.get_uint("output_size");
  job.desc.executable_size = p.get_uint("executable_size");
  job.desc.grid_site = p.get("grid_site_fixed");
  try {
    job.desc.ad = classad::parse_ad(p.get("ad", "[]"));
  } catch (const classad::ParseError&) {
    // leave empty; a corrupt ad must not wedge queue recovery
  }
  job.desc.max_attempts = static_cast<int>(p.get_int("max_attempts", 10));
  job.desc.notify_email = p.get_bool("notify_email");
  job.desc.tag = p.get("tag");
  job.submit_time = p.get_double("submit_time");

  const std::vector<std::string> fields = util::split(state, kStateSep);
  if (fields.size() != kStateFields) return job;
  job.status = status_from_string(fields[0]);
  job.hold_reason = fields[1];
  job.attempts = parse_int<int>(fields[2]);
  job.gram_seq = parse_int<std::uint64_t>(fields[3]);
  job.gram_contact = fields[4];
  job.gram_site = fields[5];
  job.remote_state = fields[6];
  job.checkpointed_work = util::parse_double(fields[7]);
  job.first_execute_time = util::parse_double(fields[8], -1);
  job.completion_time = util::parse_double(fields[9], -1);
  return job;
}

}  // namespace condorg::core
