// blunt_soak — the standing soak driver.
//
//   blunt_soak --rotation exp1[:trials],exp2[:trials],...
//              [--bench-dir DIR] [--budget-s SECONDS] [--max-passes N]
//              [--threads N] [--seed S] [--no-dashboard]
//
// Continuously cycles the rotation: each pass runs one experiment to
// completion through the normal engine + report path (one BENCH_*.json
// rewrite, one provenance-stamped BENCH_HISTORY.jsonl append), records the
// pass in SOAK_STATE.jsonl, and re-renders the blunt_report dashboard.
// Stops before starting a pass once the wall-clock budget is spent or the
// pass cap is reached.
//
// Kill it (SIGKILL included) at any point and restart with the same flags:
// completed passes reload from SOAK_STATE.jsonl, the interrupted pass
// resumes its shard checkpoint under the same pass-derived seed, and no
// ledger entry is ever double-appended for a completed pass (the pass
// record lands after the ledger append; a kill between the two re-runs the
// pass, which duplicates work, not counts).
//
// Exit code: 0 when every pass's finalize hook passed, the first failing
// hook's code otherwise (2 on unknown experiments / bad flags).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/soak.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --rotation exp1[:trials],exp2[:trials],...\n"
      "          [--bench-dir DIR] [--budget-s SECONDS] [--max-passes N]\n"
      "          [--threads N] [--seed S] [--no-dashboard]\n",
      argv0);
  return 2;
}

bool parse_rotation_list(const std::string& arg,
                         std::vector<blunt::exp::RotationEntry>* out) {
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? comma : comma - pos);
    blunt::exp::RotationEntry entry;
    if (!blunt::exp::parse_rotation_entry(tok, &entry)) return false;
    out->push_back(entry);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  blunt::exp::SoakOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--rotation") {
      if (!parse_rotation_list(value(), &opts.rotation)) {
        std::fprintf(stderr, "bad --rotation (want exp[:trials],...)\n");
        return 2;
      }
    } else if (flag == "--bench-dir") {
      opts.bench_dir = value();
    } else if (flag == "--budget-s") {
      opts.budget_ms = 1000LL * std::atoll(value());
    } else if (flag == "--max-passes") {
      opts.max_passes = std::atoll(value());
    } else if (flag == "--threads") {
      opts.threads = std::atoi(value());
      if (opts.threads < 1) opts.threads = 1;
    } else if (flag == "--seed") {
      opts.base_seed = std::strtoull(value(), nullptr, 10);
    } else if (flag == "--no-dashboard") {
      opts.regen_dashboard = false;
    } else if (flag == "-h" || flag == "--help") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return usage(argv[0]);
    }
  }
  if (opts.rotation.empty()) return usage(argv[0]);
  return blunt::exp::run_soak(opts).exit_code;
}
