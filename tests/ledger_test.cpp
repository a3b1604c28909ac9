// The experiment ledger: append/load round-trip, corrupted-line tolerance,
// and per-metric series reconstruction.
#include "obs/ledger.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/lockfile.hpp"
#include "obs/report.hpp"

namespace blunt::obs {
namespace {

/// A unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir()) + "blunt_ledger_" + tag +
              ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

[[nodiscard]] Json make_report(const std::string& bench, double bad,
                               double total_ms) {
  BenchReport r(bench);
  r.set_metric("bad_probability", bad);
  r.add_timing_ms("total", total_ms);
  return r.to_json();
}

[[nodiscard]] LedgerStamp stamp(const std::string& sha, std::int64_t ts) {
  LedgerStamp s;
  s.git_sha = sha;
  s.timestamp_unix_s = ts;
  s.hostname = "testhost";
  s.build_flavor = "Debug";
  return s;
}

TEST(Ledger, AppendLoadRoundTrip) {
  TempFile f("roundtrip");
  append_entry(f.path(), {stamp("aaa", 100), make_report("b1", 0.5, 10.0)});
  append_entry(f.path(), {stamp("bbb", 200), make_report("b1", 0.625, 12.0)});

  const Ledger ledger = load_ledger(f.path());
  ASSERT_EQ(ledger.entries.size(), 2u);
  EXPECT_EQ(ledger.skipped_lines, 0);
  EXPECT_EQ(ledger.entries[0].stamp.git_sha, "aaa");
  EXPECT_EQ(ledger.entries[0].stamp.timestamp_unix_s, 100);
  EXPECT_EQ(ledger.entries[0].stamp.hostname, "testhost");
  EXPECT_EQ(ledger.entries[0].stamp.build_flavor, "Debug");
  EXPECT_EQ(ledger.entries[1].stamp.git_sha, "bbb");
  EXPECT_EQ(ledger.entries[0].report, make_report("b1", 0.5, 10.0));
  EXPECT_EQ(
      ledger.entries[1].report.at("metrics").at("bad_probability").as_double(),
      0.625);
}

TEST(Ledger, MissingFileIsEmptyNotError) {
  const Ledger ledger = load_ledger("/nonexistent/dir/BENCH_HISTORY.jsonl");
  EXPECT_TRUE(ledger.entries.empty());
  EXPECT_EQ(ledger.skipped_lines, 0);
}

TEST(Ledger, CorruptedLinesAreSkippedAndCounted) {
  TempFile f("corrupt");
  append_entry(f.path(), {stamp("aaa", 100), make_report("b1", 0.5, 10.0)});
  {
    std::ofstream out(f.path(), std::ios::app);
    out << "{truncated partial wri\n";           // torn write
    out << "\n";                                  // blank: silently ignored
    out << "{\"schema\": \"wrong-schema\"}\n";   // valid JSON, wrong shape
    out << "not json at all\n";                   // garbage
  }
  append_entry(f.path(), {stamp("bbb", 200), make_report("b1", 0.6, 11.0)});

  const Ledger ledger = load_ledger(f.path());
  ASSERT_EQ(ledger.entries.size(), 2u);  // the good lines survive
  EXPECT_EQ(ledger.skipped_lines, 3);    // blank line not counted
  EXPECT_EQ(ledger.entries[1].stamp.git_sha, "bbb");
}

TEST(Ledger, TornTailIsSealedByTheNextAppend) {
  // A writer killed mid-append leaves a fragment with no newline. The next
  // append must seal it into a line of its own, not glue its entry onto it.
  TempFile f("torn_tail");
  append_entry(f.path(), {stamp("aaa", 100), make_report("b1", 0.5, 10.0)});
  {
    std::ofstream out(f.path(), std::ios::app | std::ios::binary);
    out << "{\"schema\":\"blunt-ledger-entry\",\"git_";
  }
  append_entry(f.path(), {stamp("bbb", 200), make_report("b1", 0.6, 11.0)});

  const Ledger ledger = load_ledger(f.path());
  ASSERT_EQ(ledger.entries.size(), 2u);
  EXPECT_EQ(ledger.entries[0].stamp.git_sha, "aaa");
  EXPECT_EQ(ledger.entries[1].stamp.git_sha, "bbb");
  EXPECT_EQ(ledger.skipped_lines, 1);
}

TEST(Ledger, EntriesWrittenBeforeFramingStillLoad) {
  // A line from before the journal frame existed: plain compact JSON with
  // no "crc32" member, carrying the retired per-worker "workers" section.
  TempFile f("legacy");
  JsonObject report = make_report("b1", 0.5, 10.0).as_object();
  JsonObject workers;
  workers["host:42"] = Json(JsonObject{{"shards", Json(3)}});
  report["workers"] = Json(workers);
  {
    std::ofstream out(f.path());
    out << entry_to_json({stamp("aaa", 100), Json(report)}).dump() << "\n";
  }
  const Ledger ledger = load_ledger(f.path());
  ASSERT_EQ(ledger.entries.size(), 1u);
  EXPECT_EQ(ledger.skipped_lines, 0);
  EXPECT_EQ(ledger.entries[0].report.at("metrics").at("bad_probability")
                .as_double(),
            0.5);
}

TEST(Ledger, ConcurrentAppendsNeverTearLines) {
  // 8 threads x 50 appends hammering one file. The single-write()-under-
  // flock append means every line must load back whole: 400 entries, zero
  // skipped. (Before the O_APPEND rewrite, iostream appends could interleave
  // mid-line under exactly this workload.)
  TempFile f("concurrent");
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 50;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&f, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        // Distinct payloads so a torn line cannot masquerade as a valid one.
        append_entry(f.path(),
                     {stamp("sha_" + std::to_string(t), t * 1000 + i),
                      make_report("bench_" + std::to_string(t),
                                  static_cast<double>(i) / kAppendsPerThread,
                                  1.0 + i)});
      }
    });
  }
  for (std::thread& t : pool) t.join();

  const Ledger ledger = load_ledger(f.path());
  EXPECT_EQ(ledger.entries.size(),
            static_cast<std::size_t>(kThreads * kAppendsPerThread));
  EXPECT_EQ(ledger.skipped_lines, 0);
}

TEST(Ledger, EntryValidationRejectsBadShapes) {
  EXPECT_NE(validate_entry_json(Json(1)), "");
  JsonObject o;
  o["schema"] = Json("blunt-ledger-entry");
  EXPECT_NE(validate_entry_json(Json(o)), "");  // missing everything else
  const Json good =
      entry_to_json({stamp("aaa", 1), make_report("b", 0.1, 1.0)});
  EXPECT_EQ(validate_entry_json(good), "");
  // An entry wrapping an invalid report is itself invalid.
  JsonObject bad = good.as_object();
  bad["report"] = Json(JsonObject{});
  EXPECT_NE(validate_entry_json(Json(bad)), "");
}

TEST(Ledger, MetricSeriesAcrossEntriesFiltersBenchAndPath) {
  TempFile f("series");
  append_entry(f.path(), {stamp("c1", 10), make_report("b1", 0.50, 10.0)});
  append_entry(f.path(), {stamp("c2", 20), make_report("b2", 0.99, 99.0)});
  append_entry(f.path(), {stamp("c3", 30), make_report("b1", 0.55, 11.0)});
  append_entry(f.path(), {stamp("c4", 40), make_report("b1", 0.60, 12.0)});

  const Ledger ledger = load_ledger(f.path());
  const auto series = metric_series(ledger, "b1", "metrics.bad_probability");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].value, 0.50);
  EXPECT_EQ(series[1].value, 0.55);
  EXPECT_EQ(series[2].value, 0.60);
  EXPECT_EQ(series[0].stamp.git_sha, "c1");
  EXPECT_EQ(series[2].entry_index, 3u);

  const auto timings = metric_series(ledger, "b1", "timings_ms.total");
  ASSERT_EQ(timings.size(), 3u);
  EXPECT_EQ(timings[2].value, 12.0);

  EXPECT_TRUE(metric_series(ledger, "b1", "metrics.nope").empty());
  EXPECT_TRUE(metric_series(ledger, "nope", "metrics.bad_probability").empty());
}

TEST(Ledger, ResolveMetricPathHandlesDottedCounterNames) {
  BenchReport r("b");
  MetricsRegistry reg;
  reg.counter("net.messages_sent")->inc(7);
  r.merge_registry(reg.snapshot());
  r.add_timing_ms("total", 1.0);
  const Json j = r.to_json();
  const Json* v =
      resolve_metric_path(j, "registry.counters.net.messages_sent");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->as_int(), 7);
  EXPECT_EQ(resolve_metric_path(j, "registry.counters.absent"), nullptr);
  EXPECT_EQ(resolve_metric_path(j, "bogus.path"), nullptr);
}

TEST(Ledger, CollectStampHasProvenance) {
  const LedgerStamp s = collect_stamp();
  EXPECT_FALSE(s.git_sha.empty());
  EXPECT_FALSE(s.hostname.empty());
  EXPECT_FALSE(s.build_flavor.empty());
  EXPECT_GT(s.timestamp_unix_s, 0);
}

TEST(Ledger, DefaultPathFollowsBenchDirEnv) {
  // Only exercised when the env knobs are unset (the common CI case).
  if (std::getenv("BLUNT_LEDGER_PATH") == nullptr &&
      std::getenv("BLUNT_BENCH_DIR") == nullptr) {
    EXPECT_EQ(default_ledger_path(), "./BENCH_HISTORY.jsonl");
  }
  EXPECT_TRUE(ledger_enabled() || std::getenv("BLUNT_LEDGER") != nullptr);
}

TEST(Lockfile, BackoffIsDeterministicBoundedAndJittered) {
  LockRetryPolicy p;
  p.base_backoff_us = 50;
  p.seed = 1234;
  for (int attempt = 0; attempt < 12; ++attempt) {
    const std::int64_t us = lock_backoff_us(p, attempt);
    // Pure in (policy, attempt): the schedule is pinnable.
    EXPECT_EQ(us, lock_backoff_us(p, attempt));
    // Exponential base plus jitter in [0, base * 2^attempt) — never less
    // than the base, never twice it (the attempt exponent is capped, so
    // large attempt values stay bounded instead of overflowing).
    const int capped = attempt > 20 ? 20 : attempt;
    const std::int64_t base = p.base_backoff_us * (1LL << capped);
    EXPECT_GE(us, base);
    EXPECT_LT(us, 2 * base);
  }
  EXPECT_EQ(lock_backoff_us(p, 50), lock_backoff_us(p, 50));

  // Different seeds decorrelate the jitter (workers seed from pid so a
  // thundering herd does not retry in lockstep).
  LockRetryPolicy q = p;
  q.seed = 99;
  bool any_differs = false;
  for (int attempt = 0; attempt < 12; ++attempt) {
    any_differs |= lock_backoff_us(p, attempt) != lock_backoff_us(q, attempt);
  }
  EXPECT_TRUE(any_differs);
}

TEST(Lockfile, RetryCounterCountsContendedAttempts) {
  TempFile f("contended");
  append_entry(f.path(), {stamp("aaa", 100), make_report("b1", 0.5, 10.0)});

  reset_lock_retries();
  EXPECT_EQ(lock_retries(), 0);

  // Hold the flock from one descriptor while another tries non-blocking
  // acquisition: every miss lands in the process-global retry counter.
  // (flock ownership is per open file description, so two opens in one
  // process contend exactly like two processes.)
  const int holder = ::open(f.path().c_str(), O_RDWR);
  ASSERT_GE(holder, 0);
  LockRetryPolicy quick;
  quick.max_retries = 3;
  quick.base_backoff_us = 1;
  ASSERT_TRUE(acquire_file_lock(holder, quick));
  EXPECT_EQ(lock_retries(), 0);  // uncontended: no retries

  std::thread contender([&] {
    // Blocks until the holder releases; its non-blocking attempts miss.
    obs::locked_append(f.path(), "not json, skipped by the loader\n", quick);
  });
  // Give the contender time to burn through its non-blocking attempts
  // (3 retries at ~1-8us backoff), then let it through.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GE(lock_retries(), quick.max_retries);
  release_file_lock(holder);
  contender.join();
  ::close(holder);

  const Ledger ledger = load_ledger(f.path());
  EXPECT_EQ(ledger.entries.size(), 1u);  // the junk line was appended whole
  EXPECT_EQ(ledger.skipped_lines, 1);
  reset_lock_retries();
}

TEST(Lockfile, ConcurrentLockedAppendsNeverTearLines) {
  TempFile f("torn");
  constexpr int kThreads = 8;
  constexpr int kLines = 25;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      LockRetryPolicy p;
      p.seed = static_cast<std::uint64_t>(t);
      p.base_backoff_us = 1;
      for (int i = 0; i < kLines; ++i) {
        const std::string line =
            "w" + std::to_string(t) + ":" + std::to_string(i);
        locked_append(f.path(), line + "\n", p);
      }
    });
  }
  for (std::thread& w : writers) w.join();

  std::ifstream in(f.path());
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    // Every line is exactly one writer's record — no interleaving.
    ASSERT_EQ(line.find('w'), 0u) << line;
    ASSERT_EQ(line.find(':'), line.rfind(':')) << line;
    ++count;
  }
  EXPECT_EQ(count, kThreads * kLines);
}

}  // namespace
}  // namespace blunt::obs
