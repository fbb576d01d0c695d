// M1 — Kernel and optimizer microbenchmarks (google-benchmark): the raw
// compute substrate behind the executor and the per-solve costs of the
// optimization algorithms.

#include <benchmark/benchmark.h>

#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/models.hpp"
#include "oracles/oracles.hpp"
#include "surgery/exit_setting.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {
namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  const auto a = Tensor::randn(Shape{n, n}, rng);
  const auto b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    kernels::gemm(a.data(), b.data(), nullptr, c.data(), n, n, n, nullptr);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmThreaded(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  const auto a = Tensor::randn(Shape{n, n}, rng);
  const auto b = Tensor::randn(Shape{n, n}, rng);
  Tensor c(Shape{n, n});
  ThreadPool pool(4);
  for (auto _ : state) {
    kernels::gemm(a.data(), b.data(), nullptr, c.data(), n, n, n, &pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmThreaded)->Arg(256);

void BM_Conv2d(benchmark::State& state) {
  const auto channels = static_cast<std::int64_t>(state.range(0));
  Rng rng(2);
  const auto input = Tensor::randn(Shape{channels, 28, 28}, rng);
  const auto w = Tensor::randn(Shape{channels, channels, 3, 3}, rng);
  const auto b = Tensor::zeros(Shape{channels});
  for (auto _ : state) {
    auto out = kernels::conv2d(input, w, b, 1, 1, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Conv2d)->Arg(16)->Arg(32)->Arg(64);

void BM_DwConv2d(benchmark::State& state) {
  const auto channels = static_cast<std::int64_t>(state.range(0));
  Rng rng(3);
  const auto input = Tensor::randn(Shape{channels, 56, 56}, rng);
  const auto w = Tensor::randn(Shape{channels, 3, 3}, rng);
  const auto b = Tensor::zeros(Shape{channels});
  for (auto _ : state) {
    auto out = kernels::dwconv2d(input, w, b, 1, 1, nullptr);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DwConv2d)->Arg(32)->Arg(128);

void BM_Softmax(benchmark::State& state) {
  Rng rng(4);
  const auto input = Tensor::randn(Shape{1000}, rng);
  for (auto _ : state) {
    auto out = kernels::softmax(input);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Softmax);

void BM_QuantizeInt8(benchmark::State& state) {
  Rng rng(5);
  const auto t = Tensor::randn(Shape{256, 28, 28}, rng);
  for (auto _ : state) {
    auto q = kernels::quantize_int8(t);
    benchmark::DoNotOptimize(q.data.data());
  }
  state.SetBytesProcessed(state.iterations() * t.shape().bytes());
}
BENCHMARK(BM_QuantizeInt8);

void BM_DequantizeInt8(benchmark::State& state) {
  Rng rng(5);
  const auto q = kernels::quantize_int8(Tensor::randn(Shape{256, 28, 28}, rng));
  for (auto _ : state) {
    auto t = kernels::dequantize_int8(q);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_DequantizeInt8);

void BM_TinyCnnForward(benchmark::State& state) {
  const auto g = models::tiny_cnn();
  const Executor ex(g, 5);
  Rng rng(6);
  const auto input = Tensor::randn(g.node(0).out_shape, rng);
  for (auto _ : state) {
    auto out = ex.run(input);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TinyCnnForward);

void BM_LenetForward(benchmark::State& state) {
  const auto g = models::lenet5();
  const Executor ex(g, 5);
  Rng rng(7);
  const auto input = Tensor::randn(g.node(0).out_shape, rng);
  for (auto _ : state) {
    auto out = ex.run(input);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_LenetForward);

void BM_ExitSettingDp(benchmark::State& state) {
  const auto g = models::mobilenet_v1();
  ExitCandidateOptions copts;
  copts.min_spacing = 0.04;
  const auto cands = find_exit_candidates(g, copts);
  const auto acc = AccuracyModel::for_model("mobilenet_v1");
  const auto profile = profiles::raspberry_pi4();
  ExitSettingOptions opts;
  opts.min_accuracy = 0.63;
  opts.coverage_bins = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto r = dp_exit_setting(g, cands, acc, profile, opts);
    benchmark::DoNotOptimize(r.expected_latency);
  }
}
BENCHMARK(BM_ExitSettingDp)->Arg(50)->Arg(100)->Arg(200);

void BM_ExitSettingGreedy(benchmark::State& state) {
  const auto g = models::mobilenet_v1();
  ExitCandidateOptions copts;
  copts.min_spacing = 0.04;
  const auto cands = find_exit_candidates(g, copts);
  const auto acc = AccuracyModel::for_model("mobilenet_v1");
  const auto profile = profiles::raspberry_pi4();
  ExitSettingOptions opts;
  opts.min_accuracy = 0.63;
  for (auto _ : state) {
    auto r = greedy_exit_setting(g, cands, acc, profile, opts);
    benchmark::DoNotOptimize(r.expected_latency);
  }
}
BENCHMARK(BM_ExitSettingGreedy);

}  // namespace
}  // namespace scalpel

BENCHMARK_MAIN();
