#include "obs/report.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "obs/trace_export.hpp"

namespace blunt::obs {

Json snapshot_to_json(const MetricsSnapshot& s) {
  JsonObject counters;
  for (const auto& [name, v] : s.counters) counters[name] = Json(v);
  JsonObject gauges;
  for (const auto& [name, v] : s.gauges) gauges[name] = Json(v);
  JsonObject histograms;
  for (const auto& [name, h] : s.histograms) {
    JsonObject o;
    JsonArray bounds;
    for (const double b : h.upper_bounds) bounds.emplace_back(b);
    JsonArray counts;
    for (const std::int64_t c : h.counts) counts.emplace_back(c);
    o["upper_bounds"] = Json(std::move(bounds));
    o["counts"] = Json(std::move(counts));
    o["count"] = Json(h.count);
    o["mean"] = Json(h.mean);
    o["stddev"] = Json(h.stddev);
    o["min"] = Json(h.min);
    o["max"] = Json(h.max);
    // Raw moments: these make serialized snapshots re-mergeable (the
    // engine's shard checkpoints roundtrip through this JSON bit-exactly).
    o["sum"] = Json(h.sum);
    o["welford_mean"] = Json(h.welford_mean);
    o["m2"] = Json(h.m2);
    o["p50"] = Json(h.percentiles.p50);
    o["p90"] = Json(h.percentiles.p90);
    o["p99"] = Json(h.percentiles.p99);
    histograms[name] = Json(std::move(o));
  }
  JsonObject out;
  out["counters"] = Json(std::move(counters));
  out["gauges"] = Json(std::move(gauges));
  out["histograms"] = Json(std::move(histograms));
  return Json(std::move(out));
}

MetricsSnapshot snapshot_from_json(const Json& j) {
  const auto fail = [](const std::string& why) -> void {
    throw std::runtime_error("snapshot_from_json: " + why);
  };
  if (!j.is_object()) fail("not an object");
  MetricsSnapshot s;
  if (const Json* counters = j.find("counters")) {
    for (const auto& [name, v] : counters->as_object()) {
      s.counters[name] = v.as_int();
    }
  }
  if (const Json* gauges = j.find("gauges")) {
    for (const auto& [name, v] : gauges->as_object()) {
      s.gauges[name] = v.as_double();
    }
  }
  if (const Json* histograms = j.find("histograms")) {
    for (const auto& [name, hj] : histograms->as_object()) {
      if (!hj.is_object()) fail("histogram \"" + name + "\" not an object");
      MetricsSnapshot::HistogramData d;
      for (const Json& b : hj.at("upper_bounds").as_array()) {
        d.upper_bounds.push_back(b.as_double());
      }
      for (const Json& c : hj.at("counts").as_array()) {
        d.counts.push_back(c.as_int());
      }
      if (d.counts.size() != d.upper_bounds.size() + 1) {
        fail("histogram \"" + name + "\" counts/bounds size mismatch");
      }
      d.count = hj.at("count").as_int();
      d.mean = hj.at("mean").as_double();
      d.stddev = hj.at("stddev").as_double();
      d.min = hj.at("min").as_double();
      d.max = hj.at("max").as_double();
      d.sum = hj.at("sum").as_double();
      d.welford_mean = hj.at("welford_mean").as_double();
      d.m2 = hj.at("m2").as_double();
      d.percentiles.p50 = hj.at("p50").as_double();
      d.percentiles.p90 = hj.at("p90").as_double();
      d.percentiles.p99 = hj.at("p99").as_double();
      s.histograms[name] = std::move(d);
    }
  }
  return s;
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

void BenchReport::set_metric(const std::string& key, double v) {
  metrics_[key] = Json(v);
}

void BenchReport::set_metric_int(const std::string& key, std::int64_t v) {
  metrics_[key] = Json(v);
}

void BenchReport::set_metric_string(const std::string& key, std::string v) {
  metrics_[key] = Json(std::move(v));
}

void BenchReport::set_metric_bool(const std::string& key, bool v) {
  metrics_[key] = Json(v);
}

void BenchReport::set_metric_json(const std::string& key, Json v) {
  metrics_[key] = std::move(v);
}

void BenchReport::add_timing_ms(const std::string& label, double ms) {
  timings_ms_[label] = Json(ms);
}

void BenchReport::merge_registry(const MetricsSnapshot& s) {
  registry_.merge(s);
}

void BenchReport::set_environment(const std::string& key, std::string value) {
  environment_[key] = Json(std::move(value));
}

void BenchReport::set_environment_int(const std::string& key,
                                      std::int64_t value) {
  environment_[key] = Json(value);
}

void BenchReport::set_coverage(const std::string& key, Json v) {
  coverage_[key] = std::move(v);
}

void BenchReport::set_profile(const std::string& key, Json v) {
  profile_[key] = std::move(v);
}

Json BenchReport::to_json() const {
  JsonObject o;
  o["schema"] = Json("blunt-bench-report");
  o["schema_version"] = Json(1);
  o["bench"] = Json(name_);
  o["metrics"] = Json(metrics_);
  o["registry"] = snapshot_to_json(registry_);
  o["timings_ms"] = Json(timings_ms_);
  o["environment"] = Json(environment_);
  // Optional: only coverage-enabled runs carry the section, so pre-coverage
  // reports, baselines, and their comparisons are untouched.
  if (!coverage_.empty()) o["coverage"] = Json(coverage_);
  if (!profile_.empty()) o["profile"] = Json(profile_);
  return Json(std::move(o));
}

std::string BenchReport::write() {
  if (timings_ms_.find("total") == timings_ms_.end()) {
    const double total_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    add_timing_ms("total", total_ms);
  }
  std::string dir = ".";
  if (const char* env = std::getenv("BLUNT_BENCH_DIR")) {
    if (*env != '\0') dir = env;
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  write_text_file(path, to_json().dump(2) + "\n");
  return path;
}

namespace {

/// Depth-first scan for NaN/Inf; returns the path of the first offender,
/// empty string when the whole tree is finite.
std::string find_nonfinite(const Json& j, const std::string& path) {
  if (j.is_double() && !std::isfinite(j.as_double())) return path;
  if (j.is_array()) {
    const JsonArray& a = j.as_array();
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::string hit = find_nonfinite(a[i], path + "[" + std::to_string(i) + "]");
      if (!hit.empty()) return hit;
    }
  } else if (j.is_object()) {
    for (const auto& [k, v] : j.as_object()) {
      std::string hit = find_nonfinite(v, path.empty() ? k : path + "." + k);
      if (!hit.empty()) return hit;
    }
  }
  return "";
}

}  // namespace

std::string validate_report_json(const Json& j) {
  if (!j.is_object()) return "report is not a JSON object";
  if (const std::string hit = find_nonfinite(j, ""); !hit.empty()) {
    return "non-finite number (NaN/Inf) at \"" + hit + "\"";
  }
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "blunt-bench-report") {
    return "missing schema marker \"blunt-bench-report\"";
  }
  const Json* version = j.find("schema_version");
  if (version == nullptr || !version->is_int()) {
    return "missing integer schema_version";
  }
  const Json* bench = j.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty()) {
    return "missing bench name";
  }
  for (const char* section : {"metrics", "registry", "timings_ms",
                              "environment"}) {
    const Json* s = j.find(section);
    if (s == nullptr || !s->is_object()) {
      return std::string("missing object section \"") + section + "\"";
    }
  }
  const Json& registry = j.at("registry");
  for (const char* sub : {"counters", "gauges", "histograms"}) {
    const Json* s = registry.find(sub);
    if (s == nullptr || !s->is_object()) {
      return std::string("registry missing \"") + sub + "\"";
    }
  }
  const Json* total = j.at("timings_ms").find("total");
  if (total == nullptr || !total->is_number()) {
    return "timings_ms missing numeric \"total\"";
  }
  // "coverage" is optional, but when present it must be an object (the
  // renderers index into it without re-validating).
  if (const Json* cov = j.find("coverage");
      cov != nullptr && !cov->is_object()) {
    return "section \"coverage\" present but not an object";
  }
  // Same for "profile": optional, object when present.
  if (const Json* prof = j.find("profile");
      prof != nullptr && !prof->is_object()) {
    return "section \"profile\" present but not an object";
  }
  return "";
}

}  // namespace blunt::obs
