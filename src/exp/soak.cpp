#include "exp/soak.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "exp/runner.hpp"
#include "exp/seed.hpp"
#include "obs/json.hpp"
#include "obs/lockfile.hpp"

namespace blunt::exp {

namespace {

[[nodiscard]] std::int64_t system_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::string state_path(const SoakOptions& opts) {
  return opts.bench_dir + "/SOAK_STATE.jsonl";
}

[[nodiscard]] obs::Json pass_record(const RotationEntry& entry,
                                    std::int64_t pass, std::uint64_t seed,
                                    std::int64_t trials, double wall_ms,
                                    int exit_code) {
  obs::JsonObject o;
  o["schema"] = obs::Json(kSoakSchema);
  o["version"] = obs::Json(kSoakVersion);
  o["pass"] = obs::Json(pass);
  o["experiment"] = obs::Json(entry.experiment);
  o["seed"] = obs::Json(static_cast<std::int64_t>(seed));
  o["trials"] = obs::Json(trials);
  o["wall_ms"] = obs::Json(wall_ms);
  o["exit_code"] = obs::Json(exit_code);
  o["ts_unix_ms"] = obs::Json(system_now_ms());
  return obs::Json(std::move(o));
}

/// Directory of the running binary (via /proc/self/exe), "" when
/// unavailable — the dashboard regen is then skipped, never fatal.
[[nodiscard]] std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

void regen_dashboard(const SoakOptions& opts) {
  const std::string dir = self_dir();
  if (dir.empty()) return;
  std::string report_bin = dir + "/blunt_report";
  if (::access(report_bin.c_str(), X_OK) != 0) {
    return;  // running from an install layout without the sibling: skip
  }
  // An argv, not a shell string: the bench dir reaches blunt_report
  // verbatim whatever characters it holds. Everything the child touches is
  // built before fork(), so the child only calls async-signal-safe
  // functions on its way to execv.
  std::string bench_dir = opts.bench_dir;
  char flag_dir[] = "--bench-dir";
  char flag_no_gate[] = "--no-gate";
  char* const argv[] = {report_bin.data(), flag_dir, bench_dir.data(),
                        flag_no_gate, nullptr};
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execv(argv[0], argv);
    ::_exit(127);
  }
  // --no-gate: the soak is an observer. A failed render must not stop the
  // rotation either, so the exit status is advisory.
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "soak: dashboard regen failed (continuing)\n");
  }
}

}  // namespace

bool parse_rotation_entry(const std::string& arg, RotationEntry* out) {
  RotationEntry entry;
  const std::size_t colon = arg.find(':');
  entry.experiment = arg.substr(0, colon);
  if (entry.experiment.empty()) return false;
  if (colon != std::string::npos) {
    const std::string trials = arg.substr(colon + 1);
    if (trials.empty() ||
        trials.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    entry.trials = std::atoll(trials.c_str());
  }
  *out = entry;
  return true;
}

SoakPosition load_soak_position(const std::string& path) {
  SoakPosition pos;
  // A torn record from a kill mid-append is skipped: that pass simply
  // re-runs (resuming its checkpoint), which is the safe direction.
  pos.skipped_lines = obs::read_journal(path, [&pos](const obs::Json& j) {
    const obs::Json* schema = j.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->as_string() != kSoakSchema) {
      return false;
    }
    // Passes append in order, but take the max anyway: a replayed or
    // hand-merged state file must never move the rotation backwards.
    pos.passes = std::max(pos.passes, j.at("pass").as_int() + 1);
    return true;
  });
  return pos;
}

std::uint64_t soak_pass_seed(std::uint64_t base_seed, std::int64_t pass_index) {
  return splitmix64(base_seed ^ static_cast<std::uint64_t>(pass_index));
}

SoakResult run_soak(const SoakOptions& opts) {
  SoakResult res;
  if (opts.rotation.empty()) {
    std::fprintf(stderr, "soak: empty rotation\n");
    res.exit_code = 2;
    return res;
  }
  register_builtin_experiments();
  for (const RotationEntry& entry : opts.rotation) {
    if (find_experiment(entry.experiment) == nullptr) {
      std::fprintf(stderr, "soak: unknown experiment '%s'\n",
                   entry.experiment.c_str());
      res.exit_code = 2;
      return res;
    }
  }
  ::setenv("BLUNT_BENCH_DIR", opts.bench_dir.c_str(), /*overwrite=*/1);

  const std::string state = state_path(opts);
  res.passes_total = load_soak_position(state).passes;
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&t0]() -> std::int64_t {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  for (;;) {
    if (opts.max_passes > 0 && res.passes_total >= opts.max_passes) break;
    if (opts.budget_ms > 0 && elapsed_ms() >= opts.budget_ms) break;

    const std::int64_t pass = res.passes_total;
    const RotationEntry& entry =
        opts.rotation[static_cast<std::size_t>(pass) % opts.rotation.size()];

    RunOptions run;
    run.threads = opts.threads;
    run.trials = entry.trials;
    run.has_seed = true;
    run.seed = soak_pass_seed(opts.base_seed, pass);
    // Pass-indexed checkpoint: a kill mid-pass resumes THIS pass's shards
    // (same index -> same seed -> identical bits); a completed pass's
    // checkpoint was already removed by the engine, so the next rotation
    // visit of the same experiment starts fresh.
    run.checkpoint_path = opts.bench_dir + "/SOAK_CKPT_" + entry.experiment +
                          "_p" + std::to_string(pass) + ".jsonl";

    std::printf("soak: pass %lld — %s (seed %llu)\n",
                static_cast<long long>(pass), entry.experiment.c_str(),
                static_cast<unsigned long long>(run.seed));
    const std::int64_t pass_t0 = elapsed_ms();
    const int rc = run_registered(entry.experiment, run);
    const double wall_ms = static_cast<double>(elapsed_ms() - pass_t0);
    if (rc != 0 && res.exit_code == 0) res.exit_code = rc;

    // The pass record lands AFTER the pass's report + ledger append: a kill
    // between them re-runs the pass from scratch next session — one
    // duplicate ledger entry at worst, never a skipped pass.
    obs::LockRetryPolicy p;
    p.seed = static_cast<std::uint64_t>(::getpid());
    try {
      obs::locked_append(
          state,
          obs::journal_line(
              pass_record(entry, pass, run.seed, run.trials, wall_ms, rc)),
          p);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "soak: state append failed: %s\n", ex.what());
      if (res.exit_code == 0) res.exit_code = 1;
      return res;
    }
    ++res.passes_total;
    ++res.passes_completed;

    if (opts.regen_dashboard) regen_dashboard(opts);
  }

  std::printf("soak: stopping — %lld pass(es) this session, %lld total\n",
              static_cast<long long>(res.passes_completed),
              static_cast<long long>(res.passes_total));
  return res;
}

}  // namespace blunt::exp
