#include "secagg/shares.hpp"

#include "common/check.hpp"

namespace p2pfl::secagg {

namespace {

std::vector<Vector> divide_proportional(std::span<const float> secret,
                                        std::size_t n, Rng& rng) {
  std::vector<Vector> shares(n, Vector(secret.size()));
  std::vector<double> fractions(n);
  for (std::size_t e = 0; e < secret.size(); ++e) {
    // Alg. 1: rn_i random, prn_i = rn_i / sum(rn), share_i = prn_i * w.
    // Draws are kept away from zero so the normalization is stable.
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      fractions[i] = rng.uniform(0.05, 1.0);
      total += fractions[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
      shares[i][e] = static_cast<float>(fractions[i] / total *
                                        static_cast<double>(secret[e]));
    }
  }
  return shares;
}

/// Mask amplitude of kUniformMask: masks are drawn from U(-1, 1).
constexpr double kMaskRange = 1.0;

std::vector<Vector> divide_uniform_mask(std::span<const float> secret,
                                        std::size_t n, Rng& rng) {
  std::vector<Vector> shares(n, Vector(secret.size()));
  for (std::size_t e = 0; e < secret.size(); ++e) {
    double acc = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const double mask = rng.uniform(-kMaskRange, kMaskRange);
      shares[i][e] = static_cast<float>(mask);
      acc += static_cast<double>(shares[i][e]);
    }
    shares[n - 1][e] = static_cast<float>(static_cast<double>(secret[e]) - acc);
  }
  return shares;
}

}  // namespace

std::vector<Vector> divide(std::span<const float> secret, std::size_t n,
                           Rng& rng, const SplitOptions& opts) {
  P2PFL_CHECK(n >= 1);
  switch (opts.scheme) {
    case SplitScheme::kProportional:
      return divide_proportional(secret, n, rng);
    case SplitScheme::kUniformMask:
      return divide_uniform_mask(secret, n, rng);
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
