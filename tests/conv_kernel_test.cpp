// Bit-identity of the Conv2d and Dense kernels against the scalar direct
// kernels they replaced (reference_kernels.hpp): forward output, input
// gradient, weight and bias gradients (from backward and from the
// parameter-only backward_params), across shapes, gradient sparsity, two
// backward passes in a row and every worker count.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fl/layers.hpp"
#include "reference_kernels.hpp"

namespace p2pfl::fl {
namespace {

std::vector<float> random_floats(std::size_t n, Rng& rng,
                                 double zero_frac = 0.0) {
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.chance(zero_frac) ? 0.0f
                              : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return v;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Tensor tensor(std::vector<std::size_t> shape, const std::vector<float>& v) {
  return Tensor(std::move(shape), v);
}

const double kSparsity[] = {0.0, 0.8, 1.0};
const std::size_t kWorkers[] = {1, 2, 3, 4};

class ConvKernel : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_workers(0); }
};

/// One layer shape: runs forward and two backward passes of the library
/// kernels at every worker count and compares each result bitwise with
/// the reference.
void check_conv(std::size_t batch, std::size_t c, std::size_t h,
                std::size_t w, std::size_t filters, std::size_t k,
                double sparsity, Rng& rng) {
  SCOPED_TRACE(::testing::Message()
               << "B=" << batch << " C=" << c << " " << h << "x" << w
               << " F=" << filters << " k=" << k << " sparsity=" << sparsity);
  Conv2d conv(c, filters, k);
  const std::vector<float> params = random_floats(conv.params().size(), rng);
  const std::vector<float> grads0 = random_floats(conv.grads().size(), rng);
  // Zeros in the input too: ReLU outputs feed every conv but the first.
  const std::vector<float> x = random_floats(batch * c * h * w, rng, 0.3);
  const std::vector<float> g1 =
      random_floats(batch * filters * h * w, rng, sparsity);
  const std::vector<float> g2 =
      random_floats(batch * filters * h * w, rng, sparsity);

  const std::vector<float> want_y = reference::conv2d_forward(
      x.data(), batch, c, h, w, params.data(), filters, k);
  std::vector<float> want_gw = grads0;
  const std::vector<float> want_gx1 = reference::conv2d_backward(
      x.data(), batch, c, h, w, params.data(), filters, k, g1.data(),
      want_gw.data());
  const std::vector<float> want_gw1 = want_gw;
  const std::vector<float> want_gx2 = reference::conv2d_backward(
      x.data(), batch, c, h, w, params.data(), filters, k, g2.data(),
      want_gw.data());

  std::copy(params.begin(), params.end(), conv.params().begin());
  for (std::size_t workers : kWorkers) {
    SCOPED_TRACE(::testing::Message() << "workers=" << workers);
    set_parallel_workers(workers);
    std::copy(grads0.begin(), grads0.end(), conv.grads().begin());
    Rng unused(0);
    const Tensor y =
        conv.forward(tensor({batch, c, h, w}, x), /*train=*/true, unused);
    EXPECT_TRUE(same_bits(y.flat(), want_y)) << "forward";
    const Tensor gx1 = conv.backward(tensor({batch, filters, h, w}, g1));
    EXPECT_TRUE(same_bits(gx1.flat(), want_gx1)) << "input grad, pass 1";
    EXPECT_TRUE(same_bits(conv.grads(), want_gw1)) << "param grads, pass 1";
    // No zero_grads: the second pass accumulates onto the first.
    const Tensor gx2 = conv.backward(tensor({batch, filters, h, w}, g2));
    EXPECT_TRUE(same_bits(gx2.flat(), want_gx2)) << "input grad, pass 2";
    EXPECT_TRUE(same_bits(conv.grads(), want_gw)) << "param grads, pass 2";
    // The first-layer pass: the same parameter grads, no input gradient.
    std::copy(grads0.begin(), grads0.end(), conv.grads().begin());
    conv.backward_params(tensor({batch, filters, h, w}, g1));
    EXPECT_TRUE(same_bits(conv.grads(), want_gw1)) << "param-only, pass 1";
    conv.backward_params(tensor({batch, filters, h, w}, g2));
    EXPECT_TRUE(same_bits(conv.grads(), want_gw)) << "param-only, pass 2";
  }
}

TEST_F(ConvKernel, Conv2dMatchesReferenceBitForBit) {
  Rng rng(14);
  for (std::size_t c : {1, 3, 32}) {
    for (auto [h, w] : {std::pair<std::size_t, std::size_t>{5, 7}, {8, 6}}) {
      for (std::size_t k : {1, 3, 5}) {
        for (std::size_t batch : {1, 3, 4}) {
          for (double sparsity : kSparsity) {
            // 17 filters: one whole forward block of 16 and a ragged one.
            check_conv(batch, c, h, w, 17, k, sparsity, rng);
          }
        }
      }
    }
  }
}

TEST_F(ConvKernel, Conv2dMatchesReferenceOnPaperShapes) {
  Rng rng(15);
  check_conv(2, 1, 28, 28, 32, 3, 0.8, rng);
  check_conv(2, 32, 14, 14, 64, 3, 0.8, rng);
}

TEST_F(ConvKernel, DenseMatchesReferenceBitForBit) {
  Rng rng(16);
  for (auto [in, out] : {std::pair<std::size_t, std::size_t>{1, 1},
                         {7, 3},
                         {196, 33}}) {
    for (std::size_t batch : {1, 3, 4}) {
      for (double sparsity : kSparsity) {
        SCOPED_TRACE(::testing::Message() << "in=" << in << " out=" << out
                                          << " B=" << batch
                                          << " sparsity=" << sparsity);
        Dense dense(in, out);
        const std::vector<float> params =
            random_floats(dense.params().size(), rng);
        const std::vector<float> grads0 =
            random_floats(dense.grads().size(), rng);
        const std::vector<float> x = random_floats(batch * in, rng, 0.3);
        const std::vector<float> g1 =
            random_floats(batch * out, rng, sparsity);
        const std::vector<float> g2 =
            random_floats(batch * out, rng, sparsity);
        const std::vector<float> want_y = reference::dense_forward(
            x.data(), batch, in, params.data(), out);
        std::vector<float> want_gw = grads0;
        const std::vector<float> want_gx1 = reference::dense_backward(
            x.data(), batch, in, params.data(), out, g1.data(),
            want_gw.data());
        const std::vector<float> want_gw1 = want_gw;
        const std::vector<float> want_gx2 = reference::dense_backward(
            x.data(), batch, in, params.data(), out, g2.data(),
            want_gw.data());

        std::copy(params.begin(), params.end(), dense.params().begin());
        for (std::size_t workers : kWorkers) {
          SCOPED_TRACE(::testing::Message() << "workers=" << workers);
          set_parallel_workers(workers);
          std::copy(grads0.begin(), grads0.end(), dense.grads().begin());
          Rng unused(0);
          const Tensor y = dense.forward(tensor({batch, in}, x), true, unused);
          EXPECT_TRUE(same_bits(y.flat(), want_y)) << "forward";
          const Tensor gx1 = dense.backward(tensor({batch, out}, g1));
          EXPECT_TRUE(same_bits(gx1.flat(), want_gx1)) << "input grad, 1";
          EXPECT_TRUE(same_bits(dense.grads(), want_gw1)) << "grads, 1";
          const Tensor gx2 = dense.backward(tensor({batch, out}, g2));
          EXPECT_TRUE(same_bits(gx2.flat(), want_gx2)) << "input grad, 2";
          EXPECT_TRUE(same_bits(dense.grads(), want_gw)) << "grads, 2";
          std::copy(grads0.begin(), grads0.end(), dense.grads().begin());
          dense.backward_params(tensor({batch, out}, g1));
          EXPECT_TRUE(same_bits(dense.grads(), want_gw1)) << "param-only, 1";
          dense.backward_params(tensor({batch, out}, g2));
          EXPECT_TRUE(same_bits(dense.grads(), want_gw)) << "param-only, 2";
        }
      }
    }
  }
}

}  // namespace
}  // namespace p2pfl::fl
