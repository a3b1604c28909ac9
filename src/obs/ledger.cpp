#include "obs/ledger.hpp"

#include "obs/lockfile.hpp"
#include "obs/report.hpp"

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <stdexcept>
#include <utility>

namespace blunt::obs {

namespace {

#ifndef BLUNT_BUILD_FLAVOR
#define BLUNT_BUILD_FLAVOR "unknown"
#endif

[[nodiscard]] std::string env_or(const char* name, const std::string& fallback) {
  if (const char* v = std::getenv(name); v != nullptr && *v != '\0') return v;
  return fallback;
}

/// `git rev-parse HEAD` in the current directory; empty string on any
/// failure (not a repo, git absent, truncated output).
[[nodiscard]] std::string git_head_sha() {
  FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "";
  char buf[128] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
  ::pclose(pipe);
  std::string sha(buf, n);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.size() != 40) return "";
  for (const char c : sha) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return "";
  }
  return sha;
}

}  // namespace

LedgerStamp collect_stamp() {
  LedgerStamp s;
  s.git_sha = env_or("BLUNT_GIT_SHA", "");
  if (s.git_sha.empty()) s.git_sha = git_head_sha();
  if (s.git_sha.empty()) s.git_sha = "unknown";
  s.timestamp_unix_s = static_cast<std::int64_t>(std::time(nullptr));
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
    s.hostname = host;
  } else {
    s.hostname = env_or("HOSTNAME", "unknown");
  }
  s.build_flavor = env_or("BLUNT_BUILD_FLAVOR", BLUNT_BUILD_FLAVOR);
  return s;
}

Json entry_to_json(const LedgerEntry& e) {
  JsonObject o;
  o["schema"] = Json("blunt-ledger-entry");
  o["schema_version"] = Json(1);
  o["git_sha"] = Json(e.stamp.git_sha);
  o["timestamp_unix_s"] = Json(e.stamp.timestamp_unix_s);
  o["hostname"] = Json(e.stamp.hostname);
  o["build_flavor"] = Json(e.stamp.build_flavor);
  o["report"] = e.report;
  return Json(std::move(o));
}

std::string validate_entry_json(const Json& j) {
  if (!j.is_object()) return "entry is not a JSON object";
  const Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "blunt-ledger-entry") {
    return "missing schema marker \"blunt-ledger-entry\"";
  }
  const Json* version = j.find("schema_version");
  if (version == nullptr || !version->is_int()) {
    return "missing integer schema_version";
  }
  for (const char* key : {"git_sha", "hostname", "build_flavor"}) {
    const Json* s = j.find(key);
    if (s == nullptr || !s->is_string()) {
      return std::string("missing string \"") + key + "\"";
    }
  }
  const Json* ts = j.find("timestamp_unix_s");
  if (ts == nullptr || !ts->is_int()) {
    return "missing integer timestamp_unix_s";
  }
  const Json* report = j.find("report");
  if (report == nullptr) return "missing report";
  const std::string report_err = validate_report_json(*report);
  if (!report_err.empty()) return "report: " + report_err;
  return "";
}

LedgerEntry entry_from_json(const Json& j) {
  LedgerEntry e;
  e.stamp.git_sha = j.at("git_sha").as_string();
  e.stamp.timestamp_unix_s = j.at("timestamp_unix_s").as_int();
  e.stamp.hostname = j.at("hostname").as_string();
  e.stamp.build_flavor = j.at("build_flavor").as_string();
  e.report = j.at("report");
  return e;
}

void append_entry(const std::string& path, const LedgerEntry& e) {
  // The journal writer (obs/lockfile.hpp): one flock'd O_APPEND write per
  // line, a torn tail sealed first, a CRC frame on the line. The
  // pid-seeded backoff jitter keeps concurrent processes out of lockstep.
  LockRetryPolicy p;
  p.seed = static_cast<std::uint64_t>(::getpid());
  try {
    locked_append(path, journal_line(entry_to_json(e)), p);
  } catch (const std::exception&) {
    throw std::runtime_error("ledger: append failed for " + path);
  }
}

std::string default_ledger_path() {
  if (const char* env = std::getenv("BLUNT_LEDGER_PATH")) {
    if (*env != '\0') return env;
  }
  std::string dir = ".";
  if (const char* env = std::getenv("BLUNT_BENCH_DIR")) {
    if (*env != '\0') dir = env;
  }
  return dir + "/BENCH_HISTORY.jsonl";
}

bool ledger_enabled() {
  const char* env = std::getenv("BLUNT_LEDGER");
  return env == nullptr || std::string(env) != "0";
}

std::string append_report(const Json& report_json) {
  const std::string path = default_ledger_path();
  append_entry(path, LedgerEntry{collect_stamp(), report_json});
  return path;
}

Ledger load_ledger(const std::string& path) {
  Ledger ledger;
  ledger.skipped_lines = read_journal(path, [&ledger](const Json& j) {
    if (!validate_entry_json(j).empty()) return false;
    ledger.entries.push_back(entry_from_json(j));
    return true;
  });
  return ledger;
}

const Json* resolve_metric_path(const Json& report, const std::string& path) {
  if (!report.is_object()) return nullptr;
  // Longest-prefix match: counter/gauge names may contain dots themselves,
  // so the remainder after a known section prefix is a literal key.
  struct Prefix {
    const char* prefix;
    const char* outer;
    const char* inner;  // nullptr: the key lives directly under `outer`
  };
  static constexpr Prefix kPrefixes[] = {
      {"registry.counters.", "registry", "counters"},
      {"registry.gauges.", "registry", "gauges"},
      {"metrics.", "metrics", nullptr},
      {"timings_ms.", "timings_ms", nullptr},
      {"environment.", "environment", nullptr},
      {"coverage.", "coverage", nullptr},
  };
  for (const Prefix& p : kPrefixes) {
    const std::string prefix(p.prefix);
    if (path.size() <= prefix.size() || path.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string key = path.substr(prefix.size());
    const Json* section = report.find(p.outer);
    if (section == nullptr || !section->is_object()) return nullptr;
    if (p.inner != nullptr) {
      section = section->find(p.inner);
      if (section == nullptr || !section->is_object()) return nullptr;
    }
    const Json* v = section->find(key);
    if (v == nullptr || !v->is_number()) return nullptr;
    return v;
  }
  return nullptr;
}

std::vector<SeriesPoint> metric_series(const Ledger& ledger,
                                       const std::string& bench,
                                       const std::string& path) {
  std::vector<SeriesPoint> out;
  for (std::size_t i = 0; i < ledger.entries.size(); ++i) {
    const LedgerEntry& e = ledger.entries[i];
    const Json* name = e.report.find("bench");
    if (name == nullptr || !name->is_string() || name->as_string() != bench) {
      continue;
    }
    const Json* v = resolve_metric_path(e.report, path);
    if (v == nullptr) continue;
    out.push_back(SeriesPoint{i, e.stamp, v->as_double()});
  }
  return out;
}

}  // namespace blunt::obs
