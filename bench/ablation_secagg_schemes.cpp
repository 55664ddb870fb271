// Ablation: the four secret-sharing / masking schemes implemented in
// this repo, compared on one axis the paper fixes by design choice:
//
//   * proportional (Alg. 1, the paper's scheme)  — float fractions;
//   * uniform additive mask                      — float noise shares;
//   * ring Z_{2^64} fixed point                  — classical additive
//     sharing with information-theoretic share privacy;
//   * pairwise masking (Bonawitz/CCS'17)         — the server-based
//     related-work scheme.
//
// Reported per scheme: reconstruction error of the aggregate vs the
// exact mean, a share-privacy proxy (|Pearson correlation| between
// share elements and secret elements — high means the share leaks the
// model), and throughput of the split + aggregate pipeline via
// google-benchmark.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "common/parallel.hpp"
#include "secagg/pairwise_mask.hpp"
#include "secagg/ring.hpp"
#include "secagg/sac.hpp"

namespace {

using namespace p2pfl;
using secagg::Vector;

Vector random_model(std::size_t dim, Rng& rng) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 0.5));
  return v;
}

double correlation(std::span<const float> a, std::span<const float> b) {
  const std::size_t n = a.size();
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va == 0 || vb == 0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double max_abs_err(const Vector& a, const Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i] - b[i])));
  }
  return worst;
}

void report_accuracy_and_leakage() {
  const std::size_t n = 10, dim = 4096;
  Rng rng(42);
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_model(dim, rng));
  Vector exact(dim, 0.0f);
  for (const auto& m : models) {
    for (std::size_t e = 0; e < dim; ++e) exact[e] += m[e];
  }
  for (float& v : exact) v /= static_cast<float>(n);

  std::printf("scheme              agg max-err     share/secret |corr|\n");

  {
    secagg::SplitOptions opts;
    opts.scheme = secagg::SplitScheme::kProportional;
    const Vector avg = secagg::sac_average(models, rng, opts);
    const auto shares = secagg::divide(models[0], n, rng, opts);
    std::printf("proportional (Alg.1)  %9.2e     %18.3f\n",
                max_abs_err(avg, exact),
                std::abs(correlation(shares[0], models[0])));
  }
  {
    secagg::SplitOptions opts;
    opts.scheme = secagg::SplitScheme::kUniformMask;
    const Vector avg = secagg::sac_average(models, rng, opts);
    const auto shares = secagg::divide(models[0], n, rng, opts);
    std::printf("uniform mask          %9.2e     %18.3f\n",
                max_abs_err(avg, exact),
                std::abs(correlation(shares[0], models[0])));
  }
  {
    const Vector avg = secagg::ring_sac_average(models, rng);
    const auto ring_shares =
        secagg::ring_divide(secagg::RingCodec().encode(models[0]), n, rng);
    // Map a ring share back to floats for the correlation proxy.
    Vector as_float(dim);
    for (std::size_t e = 0; e < dim; ++e) {
      as_float[e] = static_cast<float>(
          static_cast<double>(
              static_cast<std::int64_t>(ring_shares[0][e])) /
          secagg::RingCodec().scale());
    }
    std::printf("ring Z_2^64           %9.2e     %18.3f\n",
                max_abs_err(avg, exact),
                std::abs(correlation(as_float, models[0])));
  }
  {
    secagg::PairwiseMasker pm(n, 7, /*mask_range=*/5.0);
    std::vector<Vector> masked;
    std::vector<std::size_t> all;
    for (std::size_t u = 0; u < n; ++u) {
      masked.push_back(pm.mask(u, models[u]));
      all.push_back(u);
    }
    Vector sum = pm.unmask_sum(masked, all, {});
    for (float& v : sum) v /= static_cast<float>(n);
    std::printf("pairwise mask (CCS17) %9.2e     %18.3f\n",
                max_abs_err(sum, exact),
                std::abs(correlation(masked[0], models[0])));
  }
  std::printf(
      "\n(proportional shares correlate ~1 with the secret — each share is "
      "a scaled model\ncopy; mask/ring schemes leak nothing per share. The "
      "paper keeps Alg. 1 for\nsimplicity; this library lets deployments "
      "pick the ring scheme instead.)\n\n");
}

// --- throughput ---------------------------------------------------------------

void BM_DivideProportional(benchmark::State& state) {
  Rng rng(1);
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::divide(model, 10, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_DivideProportional)->Arg(1 << 12)->Arg(1 << 16);

void BM_DivideUniformMask(benchmark::State& state) {
  Rng rng(1);
  secagg::SplitOptions opts;
  opts.scheme = secagg::SplitScheme::kUniformMask;
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::divide(model, 10, rng, opts));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_DivideUniformMask)->Arg(1 << 12)->Arg(1 << 16);

// Alg. 1 at the paper CNN's size (467,818 floats) into n = 3 shares, on
// `workers` pool threads; s_per_float is wall time per model float.
void BM_DividePaperCnn(benchmark::State& state) {
  constexpr std::size_t kPaperCnnFloats = 467818;
  set_parallel_workers(static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  const Vector model = random_model(kPaperCnnFloats, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::divide(model, 3, rng));
  }
  set_parallel_workers(0);
  state.counters["s_per_float"] = benchmark::Counter(
      static_cast<double>(kPaperCnnFloats),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_DividePaperCnn)->ArgName("workers")->Arg(1)->Arg(4)->UseRealTime();

void BM_RingDivide(benchmark::State& state) {
  Rng rng(1);
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  const auto encoded = secagg::RingCodec().encode(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::ring_divide(encoded, 10, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_RingDivide)->Arg(1 << 12)->Arg(1 << 16);

void BM_PairwiseMask(benchmark::State& state) {
  Rng rng(1);
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  secagg::PairwiseMasker pm(10, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.mask(0, model));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_PairwiseMask)->Arg(1 << 12)->Arg(1 << 16);

void BM_SacAverage10Peers(benchmark::State& state) {
  Rng rng(1);
  std::vector<Vector> models;
  for (int i = 0; i < 10; ++i) {
    models.push_back(random_model(static_cast<std::size_t>(state.range(0)), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::sac_average(models, rng));
  }
}
BENCHMARK(BM_SacAverage10Peers)->Arg(1 << 12);

void BM_RingSacAverage10Peers(benchmark::State& state) {
  Rng rng(1);
  std::vector<Vector> models;
  for (int i = 0; i < 10; ++i) {
    models.push_back(random_model(static_cast<std::size_t>(state.range(0)), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::ring_sac_average(models, rng));
  }
}
BENCHMARK(BM_RingSacAverage10Peers)->Arg(1 << 12);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== ablation — secure aggregation schemes ==\n\n");
  report_accuracy_and_leakage();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
