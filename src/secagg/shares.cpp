#include "secagg/shares.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace p2pfl::secagg {

namespace {

// Elements per worker-pool task. Every share element depends only on
// (key, e, i, secret[e]), never on how the range was split, so shares are
// bit-identical at any worker count; a secret of one chunk or less is
// split inline and never wakes the pool.
constexpr std::size_t kChunk = 16384;

/// fn(lo, hi) over [0, size) in kChunk pieces, on the worker pool.
template <typename Fn>
void for_each_chunk(std::size_t size, const Fn& fn) {
  if (size <= kChunk) {
    fn(0, size);
    return;
  }
  parallel_for(0, (size + kChunk - 1) / kChunk, [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    fn(lo, std::min(size, lo + kChunk));
  });
}

/// Draw `ctr` of the stream keyed by `key` as a uniform real in [lo, hi),
/// from the draw's top 53 bits.
double keyed_uniform(std::uint64_t key, std::uint64_t ctr, double lo,
                     double hi) {
  const double u = static_cast<double>(Rng::keyed(key, ctr) >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

// Each scheme writes share i of element e to out[i][e], n = out.size(),
// reading draw e*n + i of the stream keyed by `key`.

void split_proportional(std::span<const float> secret,
                        std::span<float* const> out, std::uint64_t key) {
  const std::size_t n = out.size();
  for_each_chunk(secret.size(), [&](std::size_t lo, std::size_t hi) {
    std::vector<double> fractions(n);
    for (std::size_t e = lo; e < hi; ++e) {
      // Alg. 1: rn_i random, prn_i = rn_i / sum(rn), share_i = prn_i * w.
      // Draws are kept away from zero so the normalization is stable.
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        fractions[i] = keyed_uniform(key, e * n + i, 0.05, 1.0);
        total += fractions[i];
      }
      for (std::size_t i = 0; i < n; ++i) {
        out[i][e] = static_cast<float>(fractions[i] / total *
                                       static_cast<double>(secret[e]));
      }
    }
  });
}

/// Mask amplitude of kUniformMask: masks are drawn from U(-1, 1).
constexpr double kMaskRange = 1.0;

void split_uniform_mask(std::span<const float> secret,
                        std::span<float* const> out, std::uint64_t key) {
  const std::size_t n = out.size();
  for_each_chunk(secret.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t e = lo; e < hi; ++e) {
      double acc = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const float mask = static_cast<float>(
            keyed_uniform(key, e * n + i, -kMaskRange, kMaskRange));
        out[i][e] = mask;
        acc += static_cast<double>(mask);
      }
      out[n - 1][e] =
          static_cast<float>(static_cast<double>(secret[e]) - acc);
    }
  });
}

}  // namespace

std::vector<Vector> divide(std::span<const float> secret, std::size_t n,
                           Rng& rng, const SplitOptions& opts) {
  P2PFL_CHECK(n >= 1);
  // One draw from the caller keys the whole split.
  const std::uint64_t key = rng.next_u64();
  std::vector<Vector> shares(n);
  std::vector<float*> out;
  out.reserve(n);
  for (Vector& s : shares) {
    s.resize(secret.size());
    out.push_back(s.data());
  }
  switch (opts.scheme) {
    case SplitScheme::kProportional:
      split_proportional(secret, out, key);
      return shares;
    case SplitScheme::kUniformMask:
      split_uniform_mask(secret, out, key);
      return shares;
  }
  P2PFL_CHECK_MSG(false, "unknown split scheme");
  return {};
}

Vector sum_shares(std::span<const Vector> shares) {
  P2PFL_CHECK(!shares.empty());
  std::vector<double> acc(shares.front().size(), 0.0);
  for (const Vector& s : shares) accumulate(acc, s);
  return to_vector(acc);
}

void accumulate(std::vector<double>& acc, std::span<const float> x) {
  P2PFL_CHECK(acc.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc[i] += static_cast<double>(x[i]);
  }
}

Vector to_vector(std::span<const double> acc, double divisor) {
  P2PFL_CHECK(divisor != 0.0);
  Vector out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = static_cast<float>(acc[i] / divisor);
  }
  return out;
}

}  // namespace p2pfl::secagg
