// condorg_report: offline reader for the observability layer's artifacts.
//
// Consumes the trace JSONL written by sim::Tracer (CONDORG_TRACE=...) and
// the metrics JSON written by util::MetricsRegistry (CONDORG_METRICS=...)
// and renders human-readable reports:
//
//   condorg_report --trace run.jsonl                 # trace overview
//   condorg_report --trace run.jsonl --job 7         # one job's timeline
//   condorg_report --trace run.jsonl --recovery      # recovery percentiles
//   condorg_report --trace run.jsonl --critical-path # per-phase latency JSON
//   condorg_report --trace run.jsonl --flame         # folded flamegraph
//   condorg_report --metrics run.json                # metric tables
//   condorg_report --profile prof.json --traffic-matrix  # kernel profiler
//   condorg_report --trace run.jsonl --self-check    # structural validation
//
// --self-check exits non-zero when the trace is structurally unsound (parse
// failures, span ends without begins, double-closed spans, time running
// backwards) and is wired into scripts/check.sh so a broken exporter fails
// the repo's checks, not just a human eyeball. --critical-path applies the
// same discipline to the causal analysis: it prints sim::CriticalPath's
// deterministic JSON on stdout and fails when any job's phase attributions
// do not tile its window.
//
// This tool parses files and prints; it links the simulator's offline
// analysis classes (TraceRecord::from_json, sim::CriticalPath) but never
// runs a simulation, so it works on artifacts from any run, any machine.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "condorg/sim/critical_path.h"
#include "condorg/sim/tracer.h"
#include "condorg/util/json.h"
#include "condorg/util/metrics.h"
#include "condorg/util/stats.h"
#include "condorg/util/table.h"

namespace {

using condorg::util::JsonValue;
using condorg::util::Samples;
using condorg::util::Table;

struct Record {
  double t = 0;
  std::string kind;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::uint64_t job = 0;
  std::string name;
  std::string host;
  std::uint64_t epoch = 0;
  std::string status;
  std::string detail;
  std::uint64_t id = 0;
  std::uint64_t cause = 0;
};

struct Trace {
  std::vector<Record> records;
  std::vector<std::string> problems;  // filled by structural validation
};

std::string field(const JsonValue& object, const char* key) {
  const JsonValue* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::string();
}

/// Parse one JSONL file; structural problems are collected, not fatal, so
/// a report over a slightly damaged trace still shows what it can.
Trace load_trace(const std::string& path) {
  Trace trace;
  const std::optional<std::string> text = condorg::util::read_text_file(path);
  if (!text) {
    trace.problems.push_back("cannot open trace file: " + path);
    return trace;
  }
  std::size_t line_number = 0;
  std::size_t start = 0;
  std::set<std::uint64_t> open;    // spans begun, not yet ended
  std::set<std::uint64_t> closed;  // spans ended
  double last_time = 0;
  while (start < text->size()) {
    std::size_t end = text->find('\n', start);
    if (end == std::string::npos) end = text->size();
    const std::string_view line(text->data() + start, end - start);
    start = end + 1;
    ++line_number;
    if (line.empty()) continue;
    const std::optional<JsonValue> parsed = JsonValue::parse(line);
    if (!parsed || !parsed->is_object()) {
      trace.problems.push_back("line " + std::to_string(line_number) +
                               ": not a JSON object");
      continue;
    }
    Record record;
    record.t = parsed->number_at("t");
    record.kind = field(*parsed, "kind");
    record.span = static_cast<std::uint64_t>(parsed->number_at("span"));
    record.parent = static_cast<std::uint64_t>(parsed->number_at("parent"));
    record.job = static_cast<std::uint64_t>(parsed->number_at("job"));
    record.name = field(*parsed, "name");
    record.host = field(*parsed, "host");
    record.epoch = static_cast<std::uint64_t>(parsed->number_at("epoch"));
    record.status = field(*parsed, "status");
    record.detail = field(*parsed, "detail");
    record.id = static_cast<std::uint64_t>(parsed->number_at("id"));
    record.cause = static_cast<std::uint64_t>(parsed->number_at("cause"));

    if (record.t < last_time) {
      trace.problems.push_back("line " + std::to_string(line_number) +
                               ": time runs backwards");
    }
    last_time = record.t;
    if (record.kind == "span_begin") {
      if (!open.insert(record.span).second) {
        trace.problems.push_back("line " + std::to_string(line_number) +
                                 ": span " + std::to_string(record.span) +
                                 " begun twice");
      }
    } else if (record.kind == "span_end") {
      if (open.erase(record.span) == 0) {
        trace.problems.push_back(
            "line " + std::to_string(line_number) + ": span " +
            std::to_string(record.span) +
            (closed.count(record.span) ? " ended twice" : " ended, never begun"));
      } else {
        closed.insert(record.span);
      }
    } else if (record.kind != "event") {
      trace.problems.push_back("line " + std::to_string(line_number) +
                               ": unknown kind \"" + record.kind + "\"");
    }
    trace.records.push_back(std::move(record));
  }
  return trace;
}

std::string format_number(double value) {
  return JsonValue::number_to_string(value);
}

void print_overview(const Trace& trace) {
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t events = 0;
  std::set<std::uint64_t> jobs;
  std::set<std::string> hosts;
  std::map<std::string, std::size_t> by_name;
  for (const Record& record : trace.records) {
    if (record.kind == "span_begin") ++begins;
    if (record.kind == "span_end") ++ends;
    if (record.kind == "event") ++events;
    if (record.job != 0) jobs.insert(record.job);
    if (!record.host.empty()) hosts.insert(record.host);
    ++by_name[record.name];
  }
  std::printf("trace: %zu records (%zu span begins, %zu span ends, "
              "%zu events), %zu jobs, %zu hosts\n",
              trace.records.size(), begins, ends, events, jobs.size(),
              hosts.size());
  Table table({"name", "records"});
  for (const auto& [name, count] : by_name) {
    table.add_row({name, std::to_string(count)});
  }
  std::fputs(table.render("records by name").c_str(), stdout);
}

/// Sort rank so same-timestamp records render in causal reading order:
/// spans open before the events inside them and close after.
int kind_rank(const std::string& kind) {
  if (kind == "span_begin") return 0;
  if (kind == "event") return 1;
  return 2;  // span_end (and anything unknown sinks to the bottom)
}

void print_job_timeline(const Trace& trace, std::uint64_t job) {
  // Stable-sort by (t, span id, record kind): a tracer interleaving records
  // of several spans at one timestamp (a batched GridManager tick) still
  // renders each span's records contiguously, and the stability keeps file
  // order as the final tie-break so same-key records never flip between
  // runs.
  std::vector<const Record*> rows_sorted;
  for (const Record& record : trace.records) {
    if (record.job == job) rows_sorted.push_back(&record);
  }
  std::stable_sort(rows_sorted.begin(), rows_sorted.end(),
                   [](const Record* a, const Record* b) {
                     if (a->t != b->t) return a->t < b->t;
                     if (a->span != b->span) return a->span < b->span;
                     return kind_rank(a->kind) < kind_rank(b->kind);
                   });
  Table table(
      {"t", "kind", "name", "host", "epoch", "id", "cause", "status / detail"});
  std::size_t rows = 0;
  for (const Record* record : rows_sorted) {
    std::string tail = record->status;
    if (!record->detail.empty()) {
      if (!tail.empty()) tail += " — ";
      tail += record->detail;
    }
    table.add_row({format_number(record->t), record->kind, record->name,
                   record->host, std::to_string(record->epoch),
                   record->id != 0 ? std::to_string(record->id) : "",
                   record->cause != 0 ? std::to_string(record->cause) : "",
                   tail});
    ++rows;
  }
  if (rows == 0) {
    std::printf("no records for job %llu\n",
                static_cast<unsigned long long>(job));
    return;
  }
  std::fputs(
      table.render("timeline for job " + std::to_string(job)).c_str(),
      stdout);
}

/// Recovery latency: pair each job's "recovery.begin" with its next
/// "recovery.end" (same matching rule as Tracer::paired_event_latencies).
void print_recovery(const Trace& trace) {
  std::map<std::uint64_t, double> begun;
  Samples latencies;
  std::size_t unmatched = 0;
  for (const Record& record : trace.records) {
    if (record.kind != "event") continue;
    if (record.name == "recovery.begin") {
      begun.emplace(record.job, record.t);
    } else if (record.name == "recovery.end") {
      const auto it = begun.find(record.job);
      if (it == begun.end()) {
        ++unmatched;
        continue;
      }
      latencies.add(record.t - it->second);
      begun.erase(it);
    }
  }
  if (latencies.empty()) {
    std::printf("no completed recovery windows in this trace "
                "(%zu still open, %zu unmatched ends)\n",
                begun.size(), unmatched);
    return;
  }
  Table table({"windows", "p50 (s)", "p90 (s)", "p99 (s)", "max (s)"});
  table.add_row({std::to_string(latencies.count()),
                 format_number(latencies.percentile(50)),
                 format_number(latencies.percentile(90)),
                 format_number(latencies.percentile(99)),
                 format_number(latencies.max())});
  std::fputs(table.render("recovery latency").c_str(), stdout);
  if (!begun.empty() || unmatched != 0) {
    std::printf("note: %zu windows still open, %zu unmatched ends\n",
                begun.size(), unmatched);
  }
}

int print_metrics(const std::string& path) {
  const std::optional<std::string> text = condorg::util::read_text_file(path);
  if (!text) {
    std::fprintf(stderr, "cannot open metrics file: %s\n", path.c_str());
    return 1;
  }
  const std::optional<JsonValue> parsed = JsonValue::parse(*text);
  if (!parsed || !parsed->is_object()) {
    std::fprintf(stderr, "metrics file is not a JSON object: %s\n",
                 path.c_str());
    return 1;
  }
  if (const JsonValue* counters = parsed->find("counters");
      counters != nullptr && counters->is_object() && counters->size() > 0) {
    Table table({"counter", "value"});
    for (const auto& [key, value] : counters->members()) {
      table.add_row({key, format_number(value.as_number())});
    }
    std::fputs(table.render("counters").c_str(), stdout);
  }
  if (const JsonValue* gauges = parsed->find("gauges");
      gauges != nullptr && gauges->is_object() && gauges->size() > 0) {
    Table table({"gauge", "value", "peak", "average"});
    for (const auto& [key, value] : gauges->members()) {
      table.add_row({key, format_number(value.number_at("value")),
                     format_number(value.number_at("peak")),
                     format_number(value.number_at("average"))});
    }
    std::fputs(table.render("gauges (time-weighted)").c_str(), stdout);
  }
  if (const JsonValue* histograms = parsed->find("histograms");
      histograms != nullptr && histograms->is_object() &&
      histograms->size() > 0) {
    Table table({"histogram", "count", "mean", "p50", "p99", "max"});
    for (const auto& [key, value] : histograms->members()) {
      table.add_row({key, format_number(value.number_at("count")),
                     format_number(value.number_at("mean")),
                     format_number(value.number_at("p50")),
                     format_number(value.number_at("p99")),
                     format_number(value.number_at("max"))});
    }
    std::fputs(table.render("histograms").c_str(), stdout);
  }
  return 0;
}

/// Family name of a serialized metric key (`name{k=v,...}` -> `name`).
/// Goes through util::parse_metric_key so escaped structural characters in
/// label values (`\,`, `\=`, `\}`) cannot truncate the name.
std::string metric_family(const std::string& key) {
  return condorg::util::parse_metric_key(key).name;
}

/// Label block of a serialized metric key, values unescaped for display
/// (`name{k=a\,b}` -> `k=a,b`).
std::string metric_labels(const std::string& key) {
  const condorg::util::ParsedMetricKey parsed =
      condorg::util::parse_metric_key(key);
  std::string out;
  for (const auto& [label, value] : parsed.labels) {
    if (!out.empty()) out += ", ";
    out += label;
    out.push_back('=');
    out += value;
  }
  return out;
}

/// Submission-pipeline health at a glance: per-site staging-cache hit
/// rates, pipeline-depth peaks against the configured cap, and the Schedd
/// index footprint. Reads the same metrics JSON as the full tables.
int print_pipeline_overview(const std::string& path) {
  const std::optional<std::string> text = condorg::util::read_text_file(path);
  if (!text) {
    std::fprintf(stderr, "cannot open metrics file: %s\n", path.c_str());
    return 1;
  }
  const std::optional<JsonValue> parsed = JsonValue::parse(*text);
  if (!parsed || !parsed->is_object()) {
    std::fprintf(stderr, "metrics file is not a JSON object: %s\n",
                 path.c_str());
    return 1;
  }

  std::map<std::string, double> hits;
  std::map<std::string, double> misses;
  if (const JsonValue* counters = parsed->find("counters");
      counters != nullptr && counters->is_object()) {
    for (const auto& [key, value] : counters->members()) {
      const std::string family = metric_family(key);
      if (family == "staging_cache_hits") {
        hits[metric_labels(key)] = value.as_number();
      } else if (family == "staging_cache_misses") {
        misses[metric_labels(key)] = value.as_number();
      }
    }
  }
  std::map<std::string, std::string> sites;
  for (const auto& [labels, n] : hits) sites.emplace(labels, "");
  for (const auto& [labels, n] : misses) sites.emplace(labels, "");
  if (!sites.empty()) {
    Table table({"site", "hits", "misses", "hit rate"});
    for (const auto& [labels, unused] : sites) {
      const double h = hits.count(labels) ? hits.at(labels) : 0.0;
      const double m = misses.count(labels) ? misses.at(labels) : 0.0;
      const double total = h + m;
      table.add_row({labels, format_number(h), format_number(m),
                     total > 0.0 ? format_number(100.0 * h / total) + "%"
                                 : "-"});
    }
    std::fputs(table.render("staging cache").c_str(), stdout);
  } else {
    std::printf("no staging-cache activity in this run\n");
  }

  bool any_depth = false;
  bool any_index = false;
  Table depth({"pipeline", "now", "peak", "average"});
  Table index({"index", "size", "peak"});
  if (const JsonValue* gauges = parsed->find("gauges");
      gauges != nullptr && gauges->is_object()) {
    for (const auto& [key, value] : gauges->members()) {
      const std::string family = metric_family(key);
      if (family == "submit_pipeline_depth") {
        any_depth = true;
        depth.add_row({metric_labels(key),
                       format_number(value.number_at("value")),
                       format_number(value.number_at("peak")),
                       format_number(value.number_at("average"))});
      } else if (family == "schedd_index_size") {
        any_index = true;
        index.add_row({metric_labels(key),
                       format_number(value.number_at("value")),
                       format_number(value.number_at("peak"))});
      }
    }
  }
  if (any_depth) {
    std::fputs(depth.render("submit pipeline depth").c_str(), stdout);
  }
  if (any_index) {
    std::fputs(index.render("schedd secondary indexes").c_str(), stdout);
  }
  return 0;
}

/// Re-parse the trace through the simulator's own record parser; the
/// critical-path walker wants real TraceRecords (typed kinds, cause edges),
/// not the report tool's loose Record rows.
std::vector<condorg::sim::TraceRecord> load_sim_records(
    const std::string& path, std::size_t& parse_failures) {
  std::vector<condorg::sim::TraceRecord> records;
  parse_failures = 0;
  const std::optional<std::string> text = condorg::util::read_text_file(path);
  if (!text) return records;
  std::size_t start = 0;
  while (start < text->size()) {
    std::size_t end = text->find('\n', start);
    if (end == std::string::npos) end = text->size();
    const std::string_view line(text->data() + start, end - start);
    start = end + 1;
    if (line.empty()) continue;
    if (auto record = condorg::sim::TraceRecord::from_json(line)) {
      records.push_back(std::move(*record));
    } else {
      ++parse_failures;
    }
  }
  return records;
}

/// --critical-path / --flame: stdout carries exactly the deterministic
/// artifact (JSON or folded stacks) so check.sh can byte-compare same-seed
/// runs; diagnostics go to stderr and any tiling violation fails the run.
int print_critical_path(const std::string& path, bool flame) {
  std::size_t parse_failures = 0;
  const std::vector<condorg::sim::TraceRecord> records =
      load_sim_records(path, parse_failures);
  if (records.empty()) {
    std::fprintf(stderr, "no parseable trace records in %s\n", path.c_str());
    return 1;
  }
  const condorg::sim::CriticalPath analysis(records);
  if (flame) {
    std::fputs(analysis.to_folded().c_str(), stdout);
  } else {
    std::printf("%s\n", analysis.to_json().c_str());
  }
  int rc = 0;
  if (parse_failures != 0) {
    std::fprintf(stderr, "critical-path: %zu unparseable lines in %s\n",
                 parse_failures, path.c_str());
    rc = 1;
  }
  for (const std::string& problem : analysis.self_check()) {
    std::fprintf(stderr, "critical-path: %s\n", problem.c_str());
    rc = 1;
  }
  return rc;
}

/// Per-island execution summary of a run (any CONDORG_PARALLEL budget):
/// events dispatched, inbox (cross-island) messages integrated, window
/// epochs, and — when the profile was exported with wall columns — the
/// nanoseconds each worker spent busy vs blocked at the window barrier.
/// Island 0 is the control island (timers, harness events).
void print_island_summary(const JsonValue& profile) {
  const JsonValue* islands = profile.find("islands");
  if (islands == nullptr || !islands->is_array() ||
      islands->items().empty()) {
    return;  // no island rows (the kernel never ran): nothing to summarize
  }
  const bool has_wall =
      islands->items().front().find("blocked_ns") != nullptr;
  std::vector<std::string> columns = {"island", "events", "inbox messages",
                                      "epochs"};
  if (has_wall) {
    columns.push_back("busy ms");
    columns.push_back("blocked ms");
  }
  Table table(columns);
  std::size_t index = 0;
  for (const JsonValue& row : islands->items()) {
    std::vector<std::string> cells = {
        index == 0 ? "0 (control)" : std::to_string(index),
        format_number(row.number_at("events")),
        format_number(row.number_at("inbox_messages")),
        format_number(row.number_at("epochs"))};
    if (has_wall) {
      cells.push_back(format_number(row.number_at("busy_ns") / 1e6));
      cells.push_back(format_number(row.number_at("blocked_ns") / 1e6));
    }
    table.add_row(std::move(cells));
    ++index;
  }
  std::fputs(table.render("island execution (parallel kernel)").c_str(),
             stdout);
}

/// --traffic-matrix: render the kernel profiler's cross-host view (written
/// by Profiler::to_json) as from/to/type rows plus a per-type rollup.
int print_traffic_matrix(const std::string& path) {
  const std::optional<std::string> text = condorg::util::read_text_file(path);
  if (!text) {
    std::fprintf(stderr, "cannot open profile file: %s\n", path.c_str());
    return 1;
  }
  const std::optional<JsonValue> parsed = JsonValue::parse(*text);
  if (!parsed || !parsed->is_object()) {
    std::fprintf(stderr, "profile file is not a JSON object: %s\n",
                 path.c_str());
    return 1;
  }
  const JsonValue* matrix = parsed->find("traffic_matrix");
  if (matrix == nullptr || !matrix->is_object()) {
    std::fprintf(stderr, "profile has no traffic_matrix: %s\n", path.c_str());
    return 1;
  }
  Table table({"from", "to", "type", "messages", "bytes"});
  std::map<std::string, std::pair<double, double>> by_type;  // cross-host only
  std::size_t rows = 0;
  for (const auto& [from, dests] : matrix->members()) {
    if (!dests.is_object()) continue;
    for (const auto& [to, types] : dests.members()) {
      if (!types.is_object()) continue;
      for (const auto& [type, cell] : types.members()) {
        const double count = cell.number_at("count");
        const double bytes = cell.number_at("bytes");
        table.add_row({from, to, type, format_number(count),
                       format_number(bytes)});
        ++rows;
        if (from != to) {
          by_type[type].first += count;
          by_type[type].second += bytes;
        }
      }
    }
  }
  if (rows == 0) {
    std::printf("traffic matrix is empty (profiler disarmed?)\n");
    return 0;
  }
  std::fputs(table.render("traffic matrix").c_str(), stdout);
  Table rollup({"type", "cross-host messages", "bytes"});
  for (const auto& [type, totals] : by_type) {
    rollup.add_row({type, format_number(totals.first),
                    format_number(totals.second)});
  }
  std::fputs(rollup.render("cross-host types (island cut)").c_str(), stdout);
  print_island_summary(*parsed);
  return 0;
}

int usage() {
  std::fputs(
      "usage: condorg_report [--trace FILE] [--metrics FILE] "
      "[--profile FILE]\n"
      "                      [--job N] [--recovery] [--overview] "
      "[--self-check]\n"
      "                      [--critical-path] [--flame] [--traffic-matrix]\n"
      "  --trace FILE      trace JSONL written via CONDORG_TRACE\n"
      "  --metrics FILE    metrics JSON written via CONDORG_METRICS\n"
      "  --profile FILE    kernel-profiler JSON (sim::Profiler::to_json)\n"
      "  --job N           print one job's timeline (needs --trace)\n"
      "  --recovery        recovery-latency percentiles (needs --trace)\n"
      "  --overview        submission-pipeline summary (needs --metrics)\n"
      "  --critical-path   per-phase latency attribution JSON (needs "
      "--trace)\n"
      "  --flame           folded stacks for flamegraph tools (needs "
      "--trace)\n"
      "  --traffic-matrix  cross-host traffic tables (needs --profile)\n"
      "  --self-check      validate trace structure; non-zero exit on "
      "damage\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  std::optional<std::uint64_t> job;
  bool recovery = false;
  bool overview = false;
  bool self_check = false;
  bool critical_path = false;
  bool flame = false;
  bool traffic_matrix = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (arg == "--job" && i + 1 < argc) {
      job = std::stoull(argv[++i]);
    } else if (arg == "--recovery") {
      recovery = true;
    } else if (arg == "--overview") {
      overview = true;
    } else if (arg == "--self-check") {
      self_check = true;
    } else if (arg == "--critical-path") {
      critical_path = true;
    } else if (arg == "--flame") {
      flame = true;
    } else if (arg == "--traffic-matrix") {
      traffic_matrix = true;
    } else {
      return usage();
    }
  }
  if (trace_path.empty() && metrics_path.empty() && profile_path.empty()) {
    return usage();
  }
  if ((critical_path || flame) && trace_path.empty()) return usage();
  if (traffic_matrix && profile_path.empty()) return usage();

  int rc = 0;
  if (critical_path || flame) {
    return print_critical_path(trace_path, flame);
  }
  if (!trace_path.empty()) {
    const Trace trace = load_trace(trace_path);
    if (self_check) {
      for (const std::string& problem : trace.problems) {
        std::fprintf(stderr, "self-check: %s\n", problem.c_str());
      }
      if (!trace.problems.empty()) {
        std::fprintf(stderr, "self-check FAILED: %zu problems in %s\n",
                     trace.problems.size(), trace_path.c_str());
        return 1;
      }
      std::printf("self-check ok: %zu records in %s\n", trace.records.size(),
                  trace_path.c_str());
    } else if (job) {
      print_job_timeline(trace, *job);
    } else if (recovery) {
      print_recovery(trace);
    } else {
      print_overview(trace);
    }
    if (!self_check && !trace.problems.empty()) {
      std::fprintf(stderr, "warning: %zu structural problems (run with "
                           "--self-check for details)\n",
                   trace.problems.size());
    }
  }
  if (!metrics_path.empty()) {
    rc = overview ? print_pipeline_overview(metrics_path)
                  : print_metrics(metrics_path);
  }
  if (!profile_path.empty() && rc == 0) {
    rc = print_traffic_matrix(profile_path);
  }
  return rc;
}
