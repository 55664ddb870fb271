#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/parallel.hpp"
#include "secagg/sac.hpp"
#include "secagg/shares.hpp"

namespace p2pfl::secagg {
namespace {

Vector random_vector(std::size_t dim, Rng& rng) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

void expect_near(const Vector& a, const Vector& b, float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at element " << i;
  }
}

Vector plain_average(std::span<const Vector> models) {
  Vector avg(models.front().size(), 0.0f);
  for (const auto& m : models) {
    for (std::size_t i = 0; i < avg.size(); ++i) avg[i] += m[i];
  }
  for (float& v : avg) v /= static_cast<float>(models.size());
  return avg;
}

// --- shares ------------------------------------------------------------------

class DivideSchemes : public ::testing::TestWithParam<SplitScheme> {};

TEST_P(DivideSchemes, SharesSumToSecret) {
  Rng rng(11);
  SplitOptions opts;
  opts.scheme = GetParam();
  for (std::size_t n : {1u, 2u, 3u, 5u, 10u, 31u}) {
    const Vector secret = random_vector(64, rng);
    const auto shares = divide(secret, n, rng, opts);
    ASSERT_EQ(shares.size(), n);
    const Vector sum = sum_shares(shares);
    expect_near(sum, secret, 1e-4f);
  }
}

TEST_P(DivideSchemes, SharesDifferFromSecret) {
  Rng rng(12);
  SplitOptions opts;
  opts.scheme = GetParam();
  const Vector secret = random_vector(128, rng);
  const auto shares = divide(secret, 4, rng, opts);
  for (const auto& s : shares) {
    double diff = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      diff += std::abs(static_cast<double>(s[i] - secret[i]));
    }
    EXPECT_GT(diff, 1.0) << "a share equals the secret";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DivideSchemes,
                         ::testing::Values(SplitScheme::kProportional,
                                           SplitScheme::kUniformMask));

TEST(Divide, SingleShareIsSecret) {
  Rng rng(13);
  const Vector secret = random_vector(16, rng);
  const auto shares = divide(secret, 1, rng);
  ASSERT_EQ(shares.size(), 1u);
  expect_near(shares[0], secret, 1e-6f);
}

TEST(Divide, EmptySecretYieldsEmptyShares) {
  Rng rng(14);
  const Vector secret;
  const auto shares = divide(secret, 3, rng);
  ASSERT_EQ(shares.size(), 3u);
  for (const auto& s : shares) EXPECT_TRUE(s.empty());
}

TEST(Divide, DeterministicGivenRngState) {
  const Vector secret{1.0f, -2.0f, 3.5f};
  Rng a(5), b(5);
  const auto sa = divide(secret, 3, a);
  const auto sb = divide(secret, 3, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(sa[i], sb[i]);
}

const SplitScheme kSchemes[] = {SplitScheme::kProportional,
                                SplitScheme::kUniformMask};

struct RestoreWorkers {
  ~RestoreWorkers() { set_parallel_workers(0); }
};

TEST(Divide, BitIdenticalAcrossWorkerCounts) {
  RestoreWorkers restore;
  // Around one 16,384-element chunk, and the paper CNN's size.
  for (std::size_t size : {0u, 1u, 4u, 16383u, 16384u, 16385u, 467818u}) {
    Rng data(21);
    const Vector secret = random_vector(size, data);
    for (SplitScheme scheme : kSchemes) {
      SCOPED_TRACE(::testing::Message() << "size=" << size << " scheme="
                                        << static_cast<int>(scheme));
      std::vector<Vector> want;
      for (std::size_t workers : {1u, 2u, 3u, 4u}) {
        set_parallel_workers(workers);
        Rng rng(22);
        const auto shares = divide(secret, 3, rng, {.scheme = scheme});
        if (want.empty()) want = shares;
        ASSERT_EQ(shares.size(), want.size());
        for (std::size_t i = 0; i < shares.size(); ++i) {
          ASSERT_EQ(shares[i].size(), size);
          EXPECT_TRUE(size == 0 ||
                      std::memcmp(shares[i].data(), want[i].data(),
                                  size * sizeof(float)) == 0)
              << "share " << i << " at " << workers << " workers";
        }
      }
    }
  }
}

TEST(Divide, AdvancesRngByOneDrawWhateverTheSize) {
  for (std::size_t size : {4u, 467818u}) {
    Rng data(23);
    const Vector secret = random_vector(size, data);
    for (SplitScheme scheme : kSchemes) {
      Rng rng(24), copy(24);
      (void)divide(secret, 3, rng, {.scheme = scheme});
      (void)copy.next_u64();
      EXPECT_EQ(rng.next_u64(), copy.next_u64()) << "size=" << size;
    }
  }
}

TEST(Divide, FractionsAndMasksStayInRange) {
  Rng data(25);
  const Vector secret = random_vector(50000, data);
  // Float rounding of a share, relative to its exact value.
  const double slack = std::ldexp(1.0, -23);
  for (std::size_t n : {2u, 3u, 5u, 10u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Rng rng(26);
    // Fractions are drawn from [0.05, 1) and normalised, so share i's
    // part of the secret lies between one fraction at the floor against
    // n-1 at the ceiling and the reverse.
    const double m = static_cast<double>(n - 1);
    const double lo = 0.05 / (0.05 + m) * (1.0 - slack);
    const double hi = 1.0 / (1.0 + 0.05 * m) * (1.0 + slack);
    const auto shares = divide(secret, n, rng);
    std::size_t out_of_range = 0;
    for (const Vector& s : shares) {
      for (std::size_t e = 0; e < secret.size(); ++e) {
        if (secret[e] == 0.0f) continue;
        const double part =
            static_cast<double>(s[e]) / static_cast<double>(secret[e]);
        if (part < lo || part > hi) ++out_of_range;
      }
    }
    EXPECT_EQ(out_of_range, 0u) << "proportional parts outside [" << lo
                                << ", " << hi << "]";

    // Masks are drawn from [-1, 1); narrowing one to float can round it
    // up to exactly 1.
    const auto masked =
        divide(secret, n, rng, {.scheme = SplitScheme::kUniformMask});
    std::size_t bad_masks = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      for (float x : masked[i]) {
        if (!(x >= -1.0f && x <= 1.0f)) ++bad_masks;
      }
    }
    EXPECT_EQ(bad_masks, 0u);
  }
}

// --- placement ----------------------------------------------------------------

TEST(Placement, NOutOfNIsSingleIndex) {
  for (std::size_t n : {1u, 3u, 7u}) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto idx = replica_share_indices(j, n, n);
      ASSERT_EQ(idx.size(), 1u);
      EXPECT_EQ(idx[0], j);
    }
  }
}

TEST(Placement, ConsecutiveModularIndices) {
  const auto idx = replica_share_indices(3, 5, 3);  // n=5, k=3: 3 shares
  EXPECT_EQ(idx, (std::vector<std::size_t>{3, 4, 0}));
}

TEST(Placement, HoldersInvertIndices) {
  // Peer j holds share s  <=>  j is a holder of subtotal s.
  for (std::size_t n : {3u, 5u, 8u}) {
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<std::vector<bool>> holds(n, std::vector<bool>(n, false));
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t s : replica_share_indices(j, n, k)) {
          holds[j][s] = true;
        }
      }
      for (std::size_t s = 0; s < n; ++s) {
        const auto holders = subtotal_holders(s, n, k);
        EXPECT_EQ(holders.size(), n - k + 1);
        for (std::size_t j = 0; j < n; ++j) {
          const bool is_holder =
              std::find(holders.begin(), holders.end(), j) != holders.end();
          EXPECT_EQ(is_holder, holds[j][s])
              << "n=" << n << " k=" << k << " s=" << s << " j=" << j;
        }
      }
    }
  }
}

// --- SAC math -----------------------------------------------------------------

struct SacCase {
  std::size_t n;
  std::size_t dim;
};

class SacMath : public ::testing::TestWithParam<SacCase> {};

TEST_P(SacMath, MatchesPlainAverage) {
  Rng rng(21);
  const auto [n, dim] = GetParam();
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_vector(dim, rng));
  const Vector avg = sac_average(models, rng);
  expect_near(avg, plain_average(models), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SacMath,
    ::testing::Values(SacCase{1, 8}, SacCase{2, 8}, SacCase{3, 64},
                      SacCase{5, 64}, SacCase{10, 256}, SacCase{30, 16}));

TEST(FtSac, NoCrashesMatchesPlainAverage) {
  Rng rng(31);
  std::vector<Vector> models;
  for (int i = 0; i < 5; ++i) models.push_back(random_vector(32, rng));
  const auto r = fault_tolerant_sac_average(models, 3,
                                            std::vector<bool>(5, false), rng);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.alive, 5u);
  expect_near(r.average, plain_average(models), 1e-4f);
}

TEST(FtSac, CrashedPeersModelsStillIncluded) {
  // Fig. 3: Alice drops after sharing; her model still reaches the
  // average because her shares were already distributed.
  Rng rng(32);
  std::vector<Vector> models;
  for (int i = 0; i < 3; ++i) models.push_back(random_vector(32, rng));
  std::vector<bool> crashed{true, false, false};
  const auto r = fault_tolerant_sac_average(models, 2, crashed, rng);
  ASSERT_TRUE(r.ok);
  expect_near(r.average, plain_average(models), 1e-4f);
}

TEST(FtSac, PropertyAnyUpToNMinusKCrashesRecoverable) {
  Rng rng(33);
  for (std::size_t n : {3u, 5u, 7u}) {
    for (std::size_t k = 2; k <= n; ++k) {
      std::vector<Vector> models;
      for (std::size_t i = 0; i < n; ++i) {
        models.push_back(random_vector(8, rng));
      }
      // 50 random crash patterns with exactly n-k crashes.
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<bool> crashed(n, false);
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        rng.shuffle(order);
        for (std::size_t i = 0; i < n - k; ++i) crashed[order[i]] = true;
        const auto r = fault_tolerant_sac_average(models, k, crashed, rng);
        ASSERT_TRUE(r.ok) << "n=" << n << " k=" << k;
        expect_near(r.average, plain_average(models), 1e-4f);
      }
    }
  }
}

TEST(FtSac, ConsecutiveCrashBlockBelowQuorumFails) {
  // n-k+1 consecutive peers crashing wipes out every replica of the
  // subtotal they exclusively held.
  Rng rng(34);
  const std::size_t n = 5, k = 3;
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_vector(8, rng));
  std::vector<bool> crashed(n, false);
  // Holders of subtotal 2 are peers {2, 1, 0} (n-k+1 = 3 of them).
  crashed[0] = crashed[1] = crashed[2] = true;
  const auto r = fault_tolerant_sac_average(models, k, crashed, rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.alive, 2u);
}

TEST(FtSac, AllCrashedNotRecoverable) {
  Rng rng(35);
  std::vector<Vector> models{random_vector(4, rng), random_vector(4, rng)};
  const auto r = fault_tolerant_sac_average(models, 1,
                                            std::vector<bool>{true, true},
                                            rng);
  EXPECT_FALSE(r.ok);
}

TEST(FtSac, KEqualsOneSurvivesAllButOne) {
  Rng rng(36);
  const std::size_t n = 4;
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_vector(8, rng));
  for (std::size_t survivor = 0; survivor < n; ++survivor) {
    std::vector<bool> crashed(n, true);
    crashed[survivor] = false;
    const auto r = fault_tolerant_sac_average(models, 1, crashed, rng);
    ASSERT_TRUE(r.ok) << "survivor " << survivor;
    expect_near(r.average, plain_average(models), 1e-4f);
  }
}

}  // namespace
}  // namespace p2pfl::secagg
