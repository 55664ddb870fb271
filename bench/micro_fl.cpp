// Microbenchmarks of the FL layer hot ops: Conv2d forward/backward at the
// four conv shapes of the paper CNN (Fig. 5) and the CNN's large Dense
// layer, at batch 4 (one training step of the system benchmark) and 32.
// One worker thread, so the figures are per-core kernel cost;
// items_per_second counts multiply-adds.
//
//   ./build/bench/micro_fl --benchmark_filter=Conv2dForward
#include <benchmark/benchmark.h>

#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fl/layers.hpp"

namespace {

using namespace p2pfl;
using fl::Tensor;

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng,
                     double zero_frac = 0.0) {
  Tensor t(std::move(shape));
  for (float& v : t.flat()) {
    v = rng.chance(zero_frac) ? 0.0f : static_cast<float>(rng.normal(0, 1));
  }
  return t;
}

// Conv args: {spatial size, in channels, filters, batch}.
void conv_shapes(benchmark::internal::Benchmark* b) {
  for (std::int64_t batch : {4, 32}) {
    b->Args({28, 1, 32, batch});
    b->Args({28, 32, 32, batch});
    b->Args({14, 32, 64, batch});
    b->Args({14, 64, 64, batch});
  }
}

std::int64_t conv_macs(const benchmark::State& state) {
  const std::int64_t hw = state.range(0);
  return hw * hw * state.range(1) * state.range(2) * 9 * state.range(3);
}

void BM_Conv2dForward(benchmark::State& state) {
  const auto hw = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  fl::Conv2d conv(static_cast<std::size_t>(state.range(1)),
                  static_cast<std::size_t>(state.range(2)));
  conv.init(rng);
  const Tensor x = random_tensor(
      {static_cast<std::size_t>(state.range(3)),
       static_cast<std::size_t>(state.range(1)), hw, hw},
      rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, true, rng).data());
  }
  state.SetItemsProcessed(state.iterations() * conv_macs(state));
}
BENCHMARK(BM_Conv2dForward)->Apply(conv_shapes);

// The output gradient is 80 % zeros, as after ReLU and 2x2 max pooling
// in the paper CNN; skipped zeros still count as work done.
void BM_Conv2dBackward(benchmark::State& state) {
  const auto hw = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(3));
  const auto filters = static_cast<std::size_t>(state.range(2));
  Rng rng(2);
  fl::Conv2d conv(static_cast<std::size_t>(state.range(1)), filters);
  conv.init(rng);
  const Tensor x = random_tensor(
      {batch, static_cast<std::size_t>(state.range(1)), hw, hw}, rng);
  const Tensor g = random_tensor({batch, filters, hw, hw}, rng, 0.8);
  conv.forward(x, true, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * conv_macs(state));
}
BENCHMARK(BM_Conv2dBackward)->Apply(conv_shapes);

// Dense args: {in, out, batch}: the paper CNN's 3136 -> 128 layer.
void dense_shapes(benchmark::internal::Benchmark* b) {
  b->Args({3136, 128, 4});
  b->Args({3136, 128, 32});
}

void BM_DenseForward(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  Rng rng(3);
  fl::Dense dense(in, out);
  dense.init(rng);
  const Tensor x = random_tensor({batch, in}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.forward(x, true, rng).data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1) * state.range(2));
}
BENCHMARK(BM_DenseForward)->Apply(dense_shapes);

void BM_DenseBackward(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  Rng rng(4);
  fl::Dense dense(in, out);
  dense.init(rng);
  const Tensor x = random_tensor({batch, in}, rng);
  const Tensor g = random_tensor({batch, out}, rng);
  dense.forward(x, true, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.backward(g).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * state.range(0) *
                          state.range(1) * state.range(2));
}
BENCHMARK(BM_DenseBackward)->Apply(dense_shapes);

}  // namespace

int main(int argc, char** argv) {
  p2pfl::set_parallel_workers(1);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
