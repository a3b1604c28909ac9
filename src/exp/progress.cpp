#include "exp/progress.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/coverage.hpp"
#include "obs/lockfile.hpp"

namespace blunt::exp {

obs::Json progress_to_json(const ProgressSample& s) {
  obs::JsonObject o;
  o["schema"] = obs::Json(kProgressSchema);
  o["version"] = obs::Json(kProgressVersion);
  o["experiment"] = obs::Json(s.experiment);
  o["seed"] = obs::Json(obs::fingerprint_to_hex(s.seed));
  o["threads"] = obs::Json(s.threads);
  o["t_ms"] = obs::Json(s.t_ms);
  o["shards_total"] = obs::Json(s.shards_total);
  o["shards_resumed"] = obs::Json(s.shards_resumed);
  o["shards_claimed"] = obs::Json(s.shards_claimed);
  o["shards_done"] = obs::Json(s.shards_done);
  o["trials_total"] = obs::Json(s.trials_total);
  o["trials_done"] = obs::Json(s.trials_done);
  o["trials_per_sec"] = obs::Json(s.trials_per_sec);
  o["eta_ms"] = obs::Json(s.eta_ms);
  o["coverage_size"] = obs::Json(s.coverage_size);
  obs::JsonArray steals;
  for (const std::int64_t v : s.steals) steals.emplace_back(v);
  o["steals"] = obs::Json(std::move(steals));
  o["done"] = obs::Json(s.done);
  o["complete"] = obs::Json(s.complete);
  return obs::Json(std::move(o));
}

std::optional<ProgressSample> progress_from_json(const obs::Json& j) {
  if (!j.is_object()) return std::nullopt;
  const obs::Json* schema = j.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kProgressSchema) {
    return std::nullopt;
  }
  try {
    ProgressSample s;
    s.experiment = j.at("experiment").as_string();
    s.seed = obs::fingerprint_from_hex(j.at("seed").as_string());
    s.threads = static_cast<int>(j.at("threads").as_int());
    s.t_ms = j.at("t_ms").as_double();
    s.shards_total = j.at("shards_total").as_int();
    s.shards_resumed = j.at("shards_resumed").as_int();
    s.shards_claimed = j.at("shards_claimed").as_int();
    s.shards_done = j.at("shards_done").as_int();
    s.trials_total = j.at("trials_total").as_int();
    s.trials_done = j.at("trials_done").as_int();
    s.trials_per_sec = j.at("trials_per_sec").as_double();
    s.eta_ms = j.at("eta_ms").as_double();
    s.coverage_size = j.at("coverage_size").as_int();
    for (const obs::Json& v : j.at("steals").as_array()) {
      s.steals.push_back(v.as_int());
    }
    s.done = j.at("done").as_bool();
    s.complete = j.at("complete").as_bool();
    return s;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<ProgressSample> parse_progress_line(const std::string& line) {
  const std::optional<obs::Json> j = obs::decode_journal_line(line);
  if (!j) return std::nullopt;  // blank, torn or corrupt line: skip
  return progress_from_json(*j);
}

std::optional<ProgressSample> read_last_progress(const std::string& path) {
  std::optional<ProgressSample> last;
  (void)obs::read_journal(path, [&last](const obs::Json& j) {
    std::optional<ProgressSample> s = progress_from_json(j);
    if (!s) return false;
    last = std::move(s);
    return true;
  });
  return last;
}

std::string render_status_line(const ProgressSample& s) {
  char buf[256];
  const double pct =
      s.shards_total > 0
          ? 100.0 * static_cast<double>(s.shards_done + s.shards_resumed) /
                static_cast<double>(s.shards_total)
          : 0.0;
  if (s.done) {
    std::snprintf(buf, sizeof(buf),
                  "%s: done (%s) — %lld/%lld shards, %lld trials, %.1f "
                  "trials/s, coverage %lld",
                  s.experiment.c_str(),
                  s.complete ? "complete" : "shard budget reached",
                  static_cast<long long>(s.shards_done + s.shards_resumed),
                  static_cast<long long>(s.shards_total),
                  static_cast<long long>(s.trials_done), s.trials_per_sec,
                  static_cast<long long>(s.coverage_size));
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s: %5.1f%% — shards %lld/%lld (%lld resumed), %.1f "
                  "trials/s, coverage %lld, eta %.1fs",
                  s.experiment.c_str(), pct,
                  static_cast<long long>(s.shards_done + s.shards_resumed),
                  static_cast<long long>(s.shards_total),
                  static_cast<long long>(s.shards_resumed), s.trials_per_sec,
                  static_cast<long long>(s.coverage_size), s.eta_ms / 1000.0);
  }
  return buf;
}

namespace {

/// Incremental tail state for one progress file: `offset` counts bytes
/// already pulled, `partial` carries a trailing fragment that had no
/// newline yet. A torn final heartbeat (the sampler's write raced our read,
/// or the run was killed mid-line) therefore never wedges or miscounts the
/// watch: the fragment just sits in `partial` until its newline arrives,
/// and if it never does, every complete line before it has still been
/// rendered. A file that shrinks (rotated or restarted run) is re-tailed
/// from the start; a file that does not exist yet simply yields no sample.
/// Lines decode exactly as read_journal decodes them (parse_progress_line).
struct TailState {
  std::string path;
  std::uint64_t offset = 0;
  std::string partial;
  std::optional<ProgressSample> latest;

  /// Pulls newly appended bytes and returns the freshest view: the latest
  /// complete line, or — if the trailing fragment already parses whole — the
  /// fragment itself (a final record written without a trailing newline
  /// still counts; a complete JSON line cannot be extended into a different
  /// valid one, so it also stays buffered in case more bytes come).
  [[nodiscard]] std::optional<ProgressSample> poll() {
    if (std::ifstream in(path, std::ios::binary); in) {
      in.seekg(0, std::ios::end);
      const auto size = static_cast<std::uint64_t>(in.tellg());
      if (size < offset) {
        offset = 0;
        partial.clear();
      }
      if (size > offset) {
        in.seekg(static_cast<std::streamoff>(offset));
        std::string chunk(size - offset, '\0');
        in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        chunk.resize(static_cast<std::size_t>(in.gcount()));
        offset += chunk.size();
        partial += chunk;
        std::size_t start = 0;
        for (;;) {
          const std::size_t nl = partial.find('\n', start);
          if (nl == std::string::npos) break;
          if (std::optional<ProgressSample> s =
                  parse_progress_line(partial.substr(start, nl - start))) {
            latest = std::move(s);
          }
          start = nl + 1;
        }
        partial.erase(0, start);
      }
    }
    std::optional<ProgressSample> s = latest;
    if (!partial.empty()) {
      if (std::optional<ProgressSample> tail = parse_progress_line(partial)) {
        s = std::move(tail);
      }
    }
    return s;
  }
};

}  // namespace

int watch_progress(const std::string& path, int poll_ms, std::FILE* out,
                   long max_polls) {
  if (poll_ms < 10) poll_ms = 10;
  long polls = 0;
  TailState tail;
  tail.path = path;
  std::string last_rendered;
  for (;;) {
    if (std::optional<ProgressSample> s = tail.poll()) {
      const std::string line = render_status_line(*s);
      if (line != last_rendered) {
        std::fprintf(out, "\r\033[K%s", line.c_str());
        std::fflush(out);
        last_rendered = line;
      }
      if (s->done) {
        std::fprintf(out, "\n");
        return 0;
      }
    }
    ++polls;
    if (max_polls > 0 && polls >= max_polls) {
      std::fprintf(out, "\n");
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

}  // namespace blunt::exp
