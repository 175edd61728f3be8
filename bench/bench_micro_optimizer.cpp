// Micro-benchmarks of Algorithm 2 (region stripe-size determination):
// runtime vs grid step, request count, and thread-pool sharding.  The paper
// notes the search runs offline and "the computational overhead ... is
// acceptable"; these benches quantify that.
#include <benchmark/benchmark.h>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/core/stripe_optimizer.hpp"
#include "src/storage/profiles.hpp"

namespace harl::core {
namespace {

CostParams bench_params() {
  CostParams p = make_cost_params(6, 2, storage::hdd_profile(),
                                  storage::pcie_ssd_profile(),
                                  1.0 / (117.0 * 1024 * 1024));
  for (storage::OpProfile* prof : {&p.hserver_read, &p.hserver_write}) {
    prof->per_byte += prof->startup_mean() / static_cast<double>(64 * KiB);
    prof->startup_min *= 0.4;
    prof->startup_max *= 0.4;
  }
  return p;
}

std::vector<FileRequest> requests(std::size_t n, Bytes size) {
  Rng rng(7);
  std::vector<FileRequest> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 8192) * size, size});
  }
  return reqs;
}

void BM_OptimizeRegion_StepSweep(benchmark::State& state) {
  const CostParams p = bench_params();
  const auto reqs = requests(256, 512 * KiB);
  OptimizerOptions opts;
  opts.step = static_cast<Bytes>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
  // Finer steps evaluate quadratically more candidates; the pruning
  // counters show how many of them are abandoned as provable losers.
  const RegionStripes probe = optimize_region(p, reqs, 512.0 * KiB, opts);
  state.counters["candidates"] =
      static_cast<double>(probe.candidates_evaluated);
  state.counters["candidates_pruned"] =
      static_cast<double>(probe.candidates_pruned);
  state.counters["requests_skipped"] =
      static_cast<double>(probe.requests_skipped);
}
BENCHMARK(BM_OptimizeRegion_StepSweep)
    ->Arg(4 * KiB)
    ->Arg(16 * KiB)
    ->Arg(64 * KiB)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeRegion_LargeRegion(benchmark::State& state) {
  // Shaped like the 2 MiB region of perfbench's plan_regions workload: 80
  // writes of 2 MiB at 2 MiB-aligned random offsets and R = 2 MiB, so the
  // 4 KiB grid holds ~131k candidates and nearly all of them are abandoned
  // on their request-class floors before a request is scored.
  const CostParams p = bench_params();
  Rng rng(5);
  std::vector<FileRequest> reqs;
  for (std::size_t i = 0; i < 80; ++i) {
    reqs.push_back(FileRequest{IoOp::kWrite,
                               rng.uniform_u64(0, 2047) * 2 * MiB, 2 * MiB});
  }
  RegionStripes probe;
  for (auto _ : state) {
    probe = optimize_region(p, reqs, 2.0 * MiB);
    benchmark::DoNotOptimize(probe);
  }
  const auto candidates = static_cast<double>(probe.candidates_evaluated);
  state.counters["candidates"] = candidates;
  state.counters["cost_evals"] = static_cast<double>(probe.cost_evals);
  // Host time per candidate, in seconds (printed with an SI prefix).
  state.counters["per_candidate"] = benchmark::Counter(
      candidates, benchmark::Counter::kIsIterationInvariantRate |
                      benchmark::Counter::kInvert);
}
BENCHMARK(BM_OptimizeRegion_LargeRegion)->Unit(benchmark::kMillisecond);

void BM_OptimizeRegion_ManySizes(benchmark::State& state) {
  // Shaped like a region of `harl_trace gen` output: 2,500 requests, half
  // of them writes, with sizes drawn uniformly from 4 KiB..2 MiB on a 4 KiB
  // grid, so nearly every request is an (op, size) class of its own and
  // the engine floors them in merged groups.  R = 1 MiB, ~33k candidates.
  const CostParams p = bench_params();
  Rng rng(9);
  std::vector<FileRequest> reqs;
  double sum = 0.0;
  for (std::size_t i = 0; i < 2500; ++i) {
    const Bytes size = rng.uniform_u64(1, 512) * 4 * KiB;
    reqs.push_back(FileRequest{i % 2 ? IoOp::kRead : IoOp::kWrite,
                               rng.uniform_u64(0, 262143) * 4 * KiB, size});
    sum += static_cast<double>(size);
  }
  const double avg = sum / static_cast<double>(reqs.size());
  RegionStripes probe;
  for (auto _ : state) {
    probe = optimize_region(p, reqs, avg);
    benchmark::DoNotOptimize(probe);
  }
  const auto candidates = static_cast<double>(probe.candidates_evaluated);
  state.counters["candidates"] = candidates;
  state.counters["cost_evals"] = static_cast<double>(probe.cost_evals);
  state.counters["per_candidate"] = benchmark::Counter(
      candidates, benchmark::Counter::kIsIterationInvariantRate |
                      benchmark::Counter::kInvert);
}
BENCHMARK(BM_OptimizeRegion_ManySizes)->Unit(benchmark::kMillisecond);

void BM_OptimizeRegion_RequestSweep(benchmark::State& state) {
  const CostParams p = bench_params();
  const auto reqs = requests(static_cast<std::size_t>(state.range(0)), 512 * KiB);
  OptimizerOptions opts;
  opts.step = 16 * KiB;
  opts.max_requests = 0;  // no sampling: cost scales linearly with requests
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
}
BENCHMARK(BM_OptimizeRegion_RequestSweep)
    ->Arg(64)
    ->Arg(512)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeRegion_Parallel(benchmark::State& state) {
  const CostParams p = bench_params();
  const auto reqs = requests(512, 512 * KiB);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  OptimizerOptions opts;
  opts.pool = state.range(0) > 1 ? &pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
}
BENCHMARK(BM_OptimizeRegion_Parallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_OptimizeRegion_Sampling(benchmark::State& state) {
  const CostParams p = bench_params();
  const auto reqs = requests(8192, 512 * KiB);
  OptimizerOptions opts;
  opts.step = 16 * KiB;
  opts.max_requests = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_region(p, reqs, 512.0 * KiB, opts));
  }
}
BENCHMARK(BM_OptimizeRegion_Sampling)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(0)  // unsampled
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace harl::core

BENCHMARK_MAIN();
