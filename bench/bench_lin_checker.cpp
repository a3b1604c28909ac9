// E10: performance of the checking infrastructure (google-benchmark).
//
// The Wing–Gong linearizability checker and the prefix-chain tail-strong
// checker are the measurement instruments behind every other experiment;
// this bench tracks their cost on histories generated by real adversarial
// ABD runs of growing size.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "exp/workloads.hpp"
#include "lin/check.hpp"
#include "lin/history.hpp"
#include "lin/strong.hpp"
#include "objects/abd.hpp"
#include "sim/adversaries.hpp"
#include "sim/coin.hpp"

namespace blunt {
namespace {

// History of an adversarial ABD run with `ops_per_proc` ops per process.
struct Sample {
  lin::History history;
  lin::PreambleMapping pi;
};

Sample make_sample(int ops_per_proc, std::uint64_t seed) {
  auto w = std::make_unique<sim::World>(
      sim::Config{}, std::make_unique<sim::SeededCoin>(seed));
  objects::AbdRegister reg("R", *w, {.num_processes = 3});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [&reg, pid, ops_per_proc](sim::Proc p) -> sim::Task<void> {
                     for (int i = 0; i < ops_per_proc; ++i) {
                       co_await reg.write(
                           p, sim::Value(std::int64_t{pid * 100 + i}));
                       (void)co_await reg.read(p);
                     }
                   });
  }
  sim::UniformAdversary adv(seed + 42);
  const sim::RunResult r = w->run(adv);
  BLUNT_ASSERT(r.status == sim::RunStatus::kCompleted, "sample run failed");
  return {lin::History::from_world(*w), reg.preamble_mapping()};
}

void BM_WingGong(benchmark::State& state) {
  const Sample s = make_sample(static_cast<int>(state.range(0)), 7);
  lin::RegisterSpec spec;
  for (auto _ : state) {
    auto res = lin::check_linearizable(s.history, spec);
    benchmark::DoNotOptimize(res.linearizable);
  }
  state.SetLabel(std::to_string(s.history.size()) + " ops");
}
BENCHMARK(BM_WingGong)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_PrefixChainTailStrong(benchmark::State& state) {
  const Sample s = make_sample(static_cast<int>(state.range(0)), 11);
  lin::RegisterSpec spec;
  for (auto _ : state) {
    auto res = lin::check_prefix_chain(s.history, spec, s.pi);
    benchmark::DoNotOptimize(res.ok);
  }
  state.SetLabel(std::to_string(s.history.size()) + " ops");
}
BENCHMARK(BM_PrefixChainTailStrong)->Arg(1)->Arg(2)->Arg(3);

void BM_HistoryExtraction(benchmark::State& state) {
  auto w = std::make_unique<sim::World>(
      sim::Config{}, std::make_unique<sim::SeededCoin>(3));
  objects::AbdRegister reg("R", *w, {.num_processes = 3});
  for (Pid pid = 0; pid < 3; ++pid) {
    w->add_process("p" + std::to_string(pid),
                   [&reg, pid](sim::Proc p) -> sim::Task<void> {
                     for (int i = 0; i < 4; ++i) {
                       co_await reg.write(p, sim::Value(std::int64_t{pid}));
                       (void)co_await reg.read(p);
                     }
                   });
  }
  sim::UniformAdversary adv(5);
  (void)w->run(adv);
  for (auto _ : state) {
    auto h = lin::History::from_world(*w);
    benchmark::DoNotOptimize(h.size());
  }
}
BENCHMARK(BM_HistoryExtraction);

void BM_AbdSimulatedRun(benchmark::State& state) {
  // End-to-end simulator throughput: one full adversarial ABD workload.
  const int k = static_cast<int>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    auto w = std::make_unique<sim::World>(
        sim::Config{}, std::make_unique<sim::SeededCoin>(++seed));
    objects::AbdRegister reg("R", *w,
                             {.num_processes = 3, .preamble_iterations = k});
    for (Pid pid = 0; pid < 3; ++pid) {
      w->add_process("p" + std::to_string(pid),
                     [&reg, pid](sim::Proc p) -> sim::Task<void> {
                       co_await reg.write(p, sim::Value(std::int64_t{pid}));
                       (void)co_await reg.read(p);
                     });
    }
    sim::UniformAdversary adv(seed);
    auto r = w->run(adv);
    benchmark::DoNotOptimize(r.steps);
  }
}
BENCHMARK(BM_AbdSimulatedRun)->Arg(1)->Arg(2)->Arg(4);

// Console output as usual, plus every run collected for the JSON report.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      obs::JsonObject row;
      row["name"] = obs::Json(run.benchmark_name());
      row["iterations"] = obs::Json(static_cast<std::int64_t>(run.iterations));
      row["real_time_ns"] = obs::Json(run.GetAdjustedRealTime());
      row["cpu_time_ns"] = obs::Json(run.GetAdjustedCPUTime());
      if (!run.report_label.empty()) {
        row["label"] = obs::Json(run.report_label);
      }
      rows.emplace_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  obs::JsonArray rows;
};

}  // namespace
}  // namespace blunt

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  blunt::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  blunt::obs::BenchReport report("lin_checker");
  report.set_metric_json("benchmarks",
                         blunt::obs::Json(std::move(reporter.rows)));
  // Instrumented probe: the same ABD workload the micro-benchmarks measure.
  blunt::exp::merge_probe(
      report, blunt::exp::run_instrumented_weakener(/*coin_seed=*/0,
                                                      /*sched_seed=*/0,
                                                      /*k=*/1)
                  .snapshot);
  return blunt::exp::write_report(report) ? 0 : 1;
}
