#include "condorg/util/metrics.h"

#include <algorithm>

namespace condorg::util {
namespace {

// Label names and values may contain the key's own structural characters
// (a GASS path with a ',', a detail with '='). Backslash-escape them so the
// canonical key stays unambiguous and parse_metric_key can invert it.
void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    if (c == '\\' || c == ',' || c == '=' || c == '{' || c == '}') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
}

}  // namespace

std::string metric_key(std::string_view name, const MetricLabels& labels) {
  std::string key(name);
  if (labels.empty()) return key;
  MetricLabels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key.push_back('{');
  bool first = true;
  for (const auto& [label, value] : sorted) {
    if (!first) key.push_back(',');
    first = false;
    append_escaped(key, label);
    key.push_back('=');
    append_escaped(key, value);
  }
  key.push_back('}');
  return key;
}

ParsedMetricKey parse_metric_key(std::string_view key) {
  ParsedMetricKey out;
  std::size_t brace = std::string_view::npos;
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (key[i] == '\\') {
      ++i;  // escaped character can never open the label block
    } else if (key[i] == '{') {
      brace = i;
      break;
    }
  }
  if (brace == std::string_view::npos || key.back() != '}') {
    out.name = std::string(key);
    return out;
  }
  out.name = std::string(key.substr(0, brace));
  const std::string_view body = key.substr(brace + 1, key.size() - brace - 2);
  std::string label;
  std::string value;
  bool in_value = false;
  const auto flush = [&] {
    out.labels.emplace_back(std::move(label), std::move(value));
    label.clear();
    value.clear();
    in_value = false;
  };
  for (std::size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '\\' && i + 1 < body.size()) {
      (in_value ? value : label).push_back(body[++i]);
    } else if (c == '=' && !in_value) {
      in_value = true;
    } else if (c == ',') {
      flush();
    } else {
      (in_value ? value : label).push_back(c);
    }
  }
  if (!label.empty() || in_value) flush();
  return out;
}

namespace {

/// Rewrite every label value to "other": the family's single shared
/// overflow bucket. Label *keys* are kept, so dashboards still see the
/// family's schema.
MetricLabels other_bucket(const MetricLabels& labels) {
  MetricLabels out = labels;
  for (auto& [key, value] : out) value = "other";
  return out;
}

}  // namespace

std::string MetricsRegistry::capped_key(char kind, std::string_view name,
                                        const MetricLabels& labels,
                                        bool exists) {
  std::string key = metric_key(name, labels);
  if (labels.empty() || label_cap_ == 0 || exists) return key;
  std::string family{kind, ':'};
  family += name;
  std::size_t& series = family_series_[family];
  if (series < label_cap_) {
    ++series;
    return key;
  }
  // Family at cap: collapse into the `other` bucket and count the overflow
  // per family (inserted directly — the overflow family is itself bounded
  // by the number of metric families, not by label values).
  ++cardinality_overflows_;
  counters_[metric_key("metrics.cardinality_overflow",
                       {{"family", std::string(name)}})]
      .inc();
  return metric_key(name, other_bucket(labels));
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool exists = counters_.count(metric_key(name, labels)) > 0;
  return counters_[capped_key('c', name, labels, exists)];
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool exists = gauges_.count(metric_key(name, labels)) > 0;
  return gauges_[capped_key('g', name, labels, exists)];
}

Gauge* MetricsRegistry::own_gauge(std::string_view name,
                                  const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = metric_key(name, labels);
  if (gauges_.count(key) == 0 && !labels.empty() && label_cap_ != 0) {
    std::size_t& series = family_series_[std::string("g:").append(name)];
    if (series >= label_cap_) return nullptr;
    ++series;
  }
  return &gauges_[key];
}

HistogramMetric& MetricsRegistry::histogram(std::string_view name,
                                            const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool exists = histograms_.count(metric_key(name, labels)) > 0;
  return histograms_[capped_key('h', name, labels, exists)];
}

void MetricsRegistry::set_label_cardinality_cap(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  label_cap_ = cap;
}

std::size_t MetricsRegistry::label_cardinality_cap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return label_cap_;
}

std::uint64_t MetricsRegistry::cardinality_overflows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cardinality_overflows_;
}

std::vector<std::string> MetricsRegistry::cardinality_violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  if (label_cap_ == 0) return out;
  // Recount from the maps themselves rather than trusting family_series_:
  // the check exists to catch series minted behind the guard's back.
  std::map<std::string, std::size_t> counts;
  const auto sweep = [&](const auto& map, char kind) {
    for (const auto& [key, unused] : map) {
      (void)unused;
      const ParsedMetricKey parsed = parse_metric_key(key);
      if (parsed.labels.empty()) continue;
      bool all_other = true;
      for (const auto& [label, value] : parsed.labels) {
        (void)label;
        if (value != "other") all_other = false;
      }
      if (all_other) continue;  // the overflow bucket itself is exempt
      ++counts[std::string{kind, ':'} + parsed.name];
    }
  };
  sweep(counters_, 'c');
  sweep(gauges_, 'g');
  sweep(histograms_, 'h');
  for (const auto& [family, n] : counts) {
    if (n > label_cap_) {
      out.push_back("metrics/cardinality: family '" + family.substr(2) +
                    "' has " + std::to_string(n) +
                    " labelled series, cap is " + std::to_string(label_cap_));
    }
  }
  return out;
}

const Counter* MetricsRegistry::find_counter(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(key);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(key);
  return it == gauges_.end() ? nullptr : &it->second;
}

const HistogramMetric* MetricsRegistry::find_histogram(
    std::string_view key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(key);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view key) const {
  const Counter* counter = find_counter(key);
  return counter ? counter->value() : 0;
}

void MetricsRegistry::for_each_counter(
    std::string_view prefix,
    const std::function<void(std::string_view, std::uint64_t)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (!std::string_view(it->first).starts_with(prefix)) break;
    fn(it->first, it->second.value());
  }
}

JsonValue MetricsRegistry::snapshot(double end_time) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonValue root = JsonValue::object();
  root["end_time"] = end_time;

  JsonValue counters = JsonValue::object();
  for (const auto& [key, counter] : counters_) {
    counters[key] = counter.value();
  }
  root["counters"] = std::move(counters);

  JsonValue gauges = JsonValue::object();
  for (const auto& [key, gauge] : gauges_) {
    JsonValue entry = JsonValue::object();
    entry["value"] = gauge.value();
    entry["peak"] = gauge.peak();
    entry["average"] = gauge.average(end_time);
    entry["integral"] = gauge.integral(end_time);
    gauges[key] = std::move(entry);
  }
  root["gauges"] = std::move(gauges);

  JsonValue histograms = JsonValue::object();
  for (const auto& [key, histogram] : histograms_) {
    const Samples& samples = histogram.samples();
    const Summary& summary = histogram.summary();
    JsonValue entry = JsonValue::object();
    entry["count"] = summary.count();
    entry["sum"] = summary.sum();
    entry["mean"] = summary.mean();
    entry["stddev"] = summary.stddev();
    entry["min"] = summary.min();
    entry["max"] = summary.max();
    entry["p50"] = samples.percentile(50.0);
    entry["p90"] = samples.percentile(90.0);
    entry["p99"] = samples.percentile(99.0);
    histograms[key] = std::move(entry);
  }
  root["histograms"] = std::move(histograms);
  return root;
}

}  // namespace condorg::util
