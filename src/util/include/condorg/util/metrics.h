// Named-metric registry for the observability layer.
//
// Every daemon in the reproduction registers counters ("how many GRAM
// submits were sent"), gauges ("queue depth over simulated time") and
// histograms ("recovery latency") against the registry its Simulation owns.
// Metrics are keyed by name plus an optional, canonically sorted label set —
// "schedd.queue_depth{host=submit.wisc.edu,status=idle}" — so one world can
// hold the same metric for many sites/users without collisions.
//
// Determinism: storage is std::map keyed by the canonical string, gauges
// integrate over *simulated* time, and serialization goes through
// util::JsonValue (sorted object keys), so a snapshot of a same-seed run is
// byte-identical across executions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "condorg/util/json.h"
#include "condorg/util/stats.h"

namespace condorg::util {

/// Label set, e.g. {{"site", "pbs.anl.gov"}}. Order does not matter; keys
/// are sorted when the canonical metric key is built.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Canonical key: `name` or `name{k1=v1,k2=v2}` with labels sorted by key.
/// Structural characters (`\\`, `,`, `=`, `{`, `}`) inside a label name or
/// value are backslash-escaped so the key stays unambiguous.
std::string metric_key(std::string_view name, const MetricLabels& labels);

/// Parsed form of a canonical metric key, label values unescaped.
struct ParsedMetricKey {
  std::string name;
  MetricLabels labels;
};

/// Inverse of metric_key: `metric_key(p.name, p.labels)` rebuilds the input
/// for any key metric_key produced. Input without a label block parses as a
/// bare name.
ParsedMetricKey parse_metric_key(std::string_view key);

/// Monotonically increasing event count. Relaxed atomic: counters shared
/// across hosts (network totals, agent aggregates) may be bumped from
/// concurrent island workers; the final sum is interleaving-independent.
class Counter {
 public:
  void inc(std::uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Piecewise-constant value over simulated time (queue depth, CPUs busy).
/// Thin wrapper over TimeWeightedGauge so reports get peak/average/integral.
class Gauge {
 public:
  void set(double time, double value) { series_.set(time, value); }
  void add(double time, double delta) { series_.add(time, delta); }
  double value() const { return series_.value(); }
  double peak() const { return series_.peak(); }
  double average(double end_time) const { return series_.average(end_time); }
  double integral(double end_time) const { return series_.integral(end_time); }

 private:
  TimeWeightedGauge series_;
};

/// Distribution of observed values with exact percentiles.
class HistogramMetric {
 public:
  void observe(double x) {
    samples_.add(x);
    summary_.add(x);
  }
  const Samples& samples() const { return samples_; }
  const Summary& summary() const { return summary_; }
  std::size_t count() const { return summary_.count(); }

 private:
  Samples samples_;
  Summary summary_;
};

class MetricsRegistry {
 public:
  /// Default per-family label-cardinality cap (distinct label sets per
  /// metric name, per kind). At multi-user scale a per-user label would
  /// otherwise mint one series per user; beyond the cap new label sets
  /// collapse into a single `other` bucket (every label value rewritten to
  /// "other") and the overflow is counted per family.
  static constexpr std::size_t kDefaultLabelCardinalityCap = 64;

  /// Lookup-or-create. References stay valid for the registry's lifetime
  /// (node-based map), so hot paths may cache them. The first cap distinct
  /// label sets of a family win their own series (first-come top-K); later
  /// ones share the family's `other` bucket.
  Counter& counter(std::string_view name, const MetricLabels& labels = {});
  Gauge& gauge(std::string_view name, const MetricLabels& labels = {});
  HistogramMetric& histogram(std::string_view name,
                             const MetricLabels& labels = {});
  /// gauge() for a series that only its creator writes: nullptr, not the
  /// family's shared `other` bucket, once the family is at its cap (gauges
  /// are not synchronized across island workers).
  Gauge* own_gauge(std::string_view name, const MetricLabels& labels);

  /// Adjust the per-family cap (takes effect for series created after the
  /// call; existing series are never evicted). A cap of 0 disables the
  /// guard entirely.
  void set_label_cardinality_cap(std::size_t cap);
  std::size_t label_cardinality_cap() const;

  /// Total lookups redirected into `other` buckets so far (one per access
  /// through an over-cap label set, so it measures traffic absorbed by the
  /// bucket). The same count is visible per family as the
  /// `metrics.cardinality_overflow{family=<name>}` counter.
  std::uint64_t cardinality_overflows() const;

  /// Auditor hook: one line per metric family whose distinct non-`other`
  /// series count exceeds the cap. With the guard in place this must stay
  /// empty — a non-empty result means series were minted behind the cap's
  /// back.
  std::vector<std::string> cardinality_violations() const;

  /// Lookup by canonical key without creating; nullptr when absent.
  const Counter* find_counter(std::string_view key) const;
  const Gauge* find_gauge(std::string_view key) const;
  const HistogramMetric* find_histogram(std::string_view key) const;

  /// Convenience: counter value by canonical key, 0 when absent.
  std::uint64_t counter_value(std::string_view key) const;

  /// Visit every counter whose canonical key starts with `prefix`, in key
  /// order. Lets checks sweep a labelled family (every series of one
  /// counter name) without knowing the label values.
  void for_each_counter(
      std::string_view prefix,
      const std::function<void(std::string_view, std::uint64_t)>& fn) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Snapshot of every metric as a JSON document. Gauges integrate up to
  /// `end_time` (normally Simulation::now() / World::now()).
  JsonValue snapshot(double end_time) const;
  std::string to_json(double end_time) const { return snapshot(end_time).dump(); }

 private:
  /// Resolve the key a labelled series lands under: its own canonical key
  /// while the family is under the cap, the family's `other` bucket after.
  /// Caller holds mu_. `kind` disambiguates counter/gauge/histogram
  /// families that share a name.
  std::string capped_key(char kind, std::string_view name,
                         const MetricLabels& labels, bool exists);

  // Guards the map *structure* only: lookup-or-create can race when two
  // islands first touch distinct metrics. The returned references are
  // node-stable, so cached references stay valid. Gauge and histogram
  // *objects* are not internally synchronized — they must stay host-local
  // (per-host labels), which is exactly the state discipline DetSan and the
  // partition analyzer enforce; cross-host tallies belong in Counters.
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, HistogramMetric, std::less<>> histograms_;
  std::size_t label_cap_ = kDefaultLabelCardinalityCap;
  /// Distinct labelled series per "<kind>:<family>" (the `other` bucket not
  /// included, so the count is exactly the first-come winners).
  std::map<std::string, std::size_t, std::less<>> family_series_;
  std::uint64_t cardinality_overflows_ = 0;
};

}  // namespace condorg::util
