#include "fl/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/parallel.hpp"

// The conv kernels are compiled for several x86-64 levels and the loader
// picks the widest the CPU runs. Every clone performs the same operations
// in the same order, so results are bit-identical on any CPU; this file
// builds with -ffp-contract=off so no clone fuses a*b+c. The forward's
// generic vectors are sized for AVX-512 registers: without AVX-512 they
// live in memory, and an AVX2 clone ran slower than the baseline one.
// ThreadSanitizer builds get the baseline only: GCC's clone resolver runs
// before the TSan runtime is up and crashes the program at load.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define P2PFL_FL_KERNEL \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define P2PFL_FL_FORWARD_KERNEL \
  __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define P2PFL_FL_KERNEL
#define P2PFL_FL_FORWARD_KERNEL
#endif

namespace p2pfl::fl {
namespace {

// Generic vectors: one AVX-512 register each for F16 and D8; the
// compiler splits them to fit narrower clones.
using F16 = float __attribute__((vector_size(64)));
using D8 = double __attribute__((vector_size(64)));

// Filters per forward block: one F16 of weights and two D8 accumulators
// (low and high eight filters) per output pixel.
constexpr std::size_t kConvBlock = 16;
// Interior output pixels (all taps inside the image) computed together,
// sharing each weight load.
constexpr std::size_t kConvPixels = 4;

/// acc += (double)(w * x), lane by lane, for the 16 filters of a block.
/// Widening each half element by element lets the AVX-512 clone convert
/// eight floats in one instruction.
#define P2PFL_CONV_MAC(lo, hi, wv, xv)                                    \
  do {                                                                    \
    const F16 pr = (wv) * (xv);                                           \
    lo += D8{pr[0], pr[1], pr[2], pr[3], pr[4], pr[5], pr[6], pr[7]};     \
    hi += D8{pr[8], pr[9], pr[10], pr[11], pr[12], pr[13], pr[14], pr[15]}; \
  } while (false)

/// dst[j][i] = src[i][j] for a rows x cols matrix.
void transpose(const float* src, std::size_t rows, std::size_t cols,
               float* dst) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      dst[j * rows + i] = src[i * cols + j];
    }
  }
}

// Conv2d summation order. Every output sums its terms in the order of
// the direct loop nest the kernels replaced (tests/reference_kernels.hpp):
//   forward  y[f][p]      double, bias then (double)(w*x) over c, ky, kx;
//   weights  gw[f][c][q]  float, onto the existing value, over s, oy, ox;
//   bias     gb[f]        float, onto the existing value, over s, oy, ox;
//   input    gx[c][p]     float, from 0, over f, then oy, ox;
// skipping out-of-image taps and zero output gradients. The kernels
// vectorise across filters, pixels or channels, never along a sum.

/// Forward of one sample for one block of kConvBlock filters (the first
/// nf are real): x is (C, h, w), wb is [c][ky][kx][f], y is (F, h, w)
/// starting at the block's first filter.
P2PFL_FL_FORWARD_KERNEL
void conv_forward_block(const float* __restrict x, const float* __restrict wb,
                        const float* __restrict bb, float* __restrict y,
                        std::size_t nf, std::size_t c_in, std::size_t h,
                        std::size_t w, std::size_t k) {
  const std::size_t pad = k / 2, hw = h * w;
  D8 bias_lo, bias_hi;
  for (std::size_t j = 0; j < 8; ++j) {
    bias_lo[j] = bb[j];
    bias_hi[j] = bb[8 + j];
  }
  for (std::size_t oy = 0; oy < h; ++oy) {
    const std::size_t ky0 = oy < pad ? pad - oy : 0;
    const std::size_t ky1 = std::min(k, h + pad - oy);
    std::size_t ox = 0;
    while (ox < w) {
      D8 lo[kConvPixels], hi[kConvPixels];
      std::size_t np = 1;
      if (ox >= pad && ox + kConvPixels + pad <= w) {
        // kConvPixels interior pixels: every kx tap is inside the row.
        np = kConvPixels;
        for (std::size_t p = 0; p < kConvPixels; ++p) {
          lo[p] = bias_lo;
          hi[p] = bias_hi;
        }
        for (std::size_t c = 0; c < c_in; ++c) {
          for (std::size_t ky = ky0; ky < ky1; ++ky) {
            const float* xr = x + c * hw + (oy + ky - pad) * w + ox - pad;
            const float* wr = wb + (c * k + ky) * k * kConvBlock;
            for (std::size_t kx = 0; kx < k; ++kx) {
              F16 wv;
              std::memcpy(&wv, wr + kx * kConvBlock, sizeof wv);
#pragma GCC unroll 4
              for (std::size_t p = 0; p < kConvPixels; ++p) {
                P2PFL_CONV_MAC(lo[p], hi[p], wv, xr[kx + p]);
              }
            }
          }
        }
      } else {
        // One border pixel: taps kx in [kx0, kx1) are inside the image.
        const std::size_t kx0 = ox < pad ? pad - ox : 0;
        const std::size_t kx1 = std::min(k, w + pad - ox);
        lo[0] = bias_lo;
        hi[0] = bias_hi;
        for (std::size_t c = 0; c < c_in; ++c) {
          for (std::size_t ky = ky0; ky < ky1; ++ky) {
            const float* xr =
                x + c * hw + (oy + ky - pad) * w + ox + kx0 - pad;
            const float* wr = wb + ((c * k + ky) * k + kx0) * kConvBlock;
            for (std::size_t t = 0; t < kx1 - kx0; ++t) {
              F16 wv;
              std::memcpy(&wv, wr + t * kConvBlock, sizeof wv);
              P2PFL_CONV_MAC(lo[0], hi[0], wv, xr[t]);
            }
          }
        }
      }
      for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t j = 0; j < nf; ++j) {
          const double v = j < 8 ? lo[p][j] : hi[p][j - 8];
          y[j * hw + oy * w + ox + p] = static_cast<float>(v);
        }
      }
      ox += np;
    }
  }
}

#undef P2PFL_CONV_MAC

/// Input gradient of one sample, channels-last: gy is (F, h, w), wt is
/// [f][ky][kx][c], gxt is [p][c] and starts at zero.
P2PFL_FL_KERNEL
void conv_input_grad(const float* __restrict gy, const float* __restrict wt,
                     float* __restrict gxt, std::size_t filters,
                     std::size_t c_in, std::size_t h, std::size_t w,
                     std::size_t k) {
  const std::size_t pad = k / 2, hw = h * w;
  for (std::size_t f = 0; f < filters; ++f) {
    for (std::size_t oy = 0; oy < h; ++oy) {
      const std::size_t ky0 = oy < pad ? pad - oy : 0;
      const std::size_t ky1 = std::min(k, h + pad - oy);
      for (std::size_t ox = 0; ox < w; ++ox) {
        const float g = gy[f * hw + oy * w + ox];
        if (g == 0.0f) continue;
        const std::size_t kx0 = ox < pad ? pad - ox : 0;
        const std::size_t kx1 = std::min(k, w + pad - ox);
        // Taps kx0..kx1 of one kernel row are contiguous in both wt and
        // gxt, channels innermost.
        const std::size_t n = (kx1 - kx0) * c_in;
        for (std::size_t ky = ky0; ky < ky1; ++ky) {
          float* dst = gxt + ((oy + ky - pad) * w + ox + kx0 - pad) * c_in;
          const float* src = wt + ((f * k + ky) * k + kx0) * c_in;
          for (std::size_t j = 0; j < n; ++j) dst[j] += g * src[j];
        }
      }
    }
  }
}

/// Weight and bias gradients of filter f over the batch, channels-last:
/// gy is (B, F, h, w), xt is [s][p][c], gwt is the filter's [ky][kx][c].
P2PFL_FL_KERNEL
void conv_filter_grad(const float* __restrict gy, const float* __restrict xt,
                      float* __restrict gwt, float* __restrict gb,
                      std::size_t batch, std::size_t filters, std::size_t f,
                      std::size_t c_in, std::size_t h, std::size_t w,
                      std::size_t k) {
  const std::size_t pad = k / 2, hw = h * w;
  float bias = *gb;
  for (std::size_t s = 0; s < batch; ++s) {
    const float* gp = gy + (s * filters + f) * hw;
    const float* xs = xt + s * hw * c_in;
    for (std::size_t oy = 0; oy < h; ++oy) {
      const std::size_t ky0 = oy < pad ? pad - oy : 0;
      const std::size_t ky1 = std::min(k, h + pad - oy);
      for (std::size_t ox = 0; ox < w; ++ox) {
        const float g = gp[oy * w + ox];
        if (g == 0.0f) continue;
        bias += g;
        const std::size_t kx0 = ox < pad ? pad - ox : 0;
        const std::size_t kx1 = std::min(k, w + pad - ox);
        const std::size_t n = (kx1 - kx0) * c_in;
        for (std::size_t ky = ky0; ky < ky1; ++ky) {
          float* dst = gwt + (ky * k + kx0) * c_in;
          const float* src =
              xs + ((oy + ky - pad) * w + ox + kx0 - pad) * c_in;
          for (std::size_t j = 0; j < n; ++j) dst[j] += g * src[j];
        }
      }
    }
  }
  *gb = bias;
}

}  // namespace

// --- Dense -------------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out)
    : in_(in), out_(out), params_(out * in + out), grads_(params_.size()) {
  P2PFL_CHECK(in > 0 && out > 0);
}

void Dense::init(Rng& rng) {
  // He-uniform: suited to the ReLU activations used throughout Fig. 5.
  const float bound = std::sqrt(6.0f / static_cast<float>(in_));
  for (std::size_t i = 0; i < out_ * in_; ++i) {
    params_[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  for (std::size_t i = out_ * in_; i < params_.size(); ++i) params_[i] = 0.0f;
}

Tensor Dense::forward(const Tensor& x, bool /*train*/, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() == 2 && x.dim(1) == in_);
  cached_input_ = x;
  const std::size_t batch = x.dim(0);
  Tensor y({batch, out_});
  const float* w = params_.data();
  const float* b = params_.data() + out_ * in_;
  parallel_for_chunked(0, batch, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      const float* xin = x.data() + s * in_;
      float* yout = y.data() + s * out_;
      for (std::size_t o = 0; o < out_; ++o) {
        const float* wrow = w + o * in_;
        double acc = b[o];
        for (std::size_t i = 0; i < in_; ++i) acc += wrow[i] * xin[i];
        yout[o] = static_cast<float>(acc);
      }
    }
  });
  return y;
}

void Dense::backward_params(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  P2PFL_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_);
  P2PFL_CHECK(grad_out.dim(0) == x.dim(0));
  const std::size_t batch = x.dim(0);
  float* gw = grads_.data();
  float* gb = grads_.data() + out_ * in_;

  // Parameter gradients, rows in parallel: each row still sums over the
  // batch in sample order.
  parallel_for_chunked(0, out_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t o = lo; o < hi; ++o) {
      float* gwrow = gw + o * in_;
      for (std::size_t s = 0; s < batch; ++s) {
        const float* xin = x.data() + s * in_;
        const float g = grad_out.data()[s * out_ + o];
        for (std::size_t i = 0; i < in_; ++i) gwrow[i] += g * xin[i];
        gb[o] += g;
      }
    }
  });
}

Tensor Dense::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  const std::size_t batch = grad_out.dim(0);
  const float* w = params_.data();
  Tensor gx({batch, in_});
  parallel_for_chunked(0, batch, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      const float* gy = grad_out.data() + s * out_;
      float* gxi = gx.data() + s * in_;
      for (std::size_t o = 0; o < out_; ++o) {
        const float* wrow = w + o * in_;
        const float g = gy[o];
        for (std::size_t i = 0; i < in_; ++i) gxi[i] += g * wrow[i];
      }
    }
  });
  return gx;
}

// --- ReLU --------------------------------------------------------------------

Tensor ReLU::forward(const Tensor& x, bool /*train*/, Rng& /*rng*/) {
  cached_input_ = x;
  Tensor y = x;
  for (float& v : y.flat()) v = v > 0.0f ? v : 0.0f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  P2PFL_CHECK(grad_out.size() == cached_input_.size());
  Tensor gx = grad_out;
  const float* x = cached_input_.data();
  float* g = gx.data();
  for (std::size_t i = 0; i < gx.size(); ++i) {
    if (x[i] <= 0.0f) g[i] = 0.0f;
  }
  return gx;
}

// --- Dropout -----------------------------------------------------------------

Dropout::Dropout(float rate) : rate_(rate) {
  P2PFL_CHECK(rate >= 0.0f && rate < 1.0f);
}

Tensor Dropout::forward(const Tensor& x, bool train, Rng& rng) {
  if (!train || rate_ == 0.0f) {
    mask_.clear();
    return x;
  }
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  mask_.resize(x.size());
  Tensor y = x;
  float* v = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) {
    mask_[i] = rng.chance(keep) ? scale : 0.0f;
    v[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  P2PFL_CHECK(grad_out.size() == mask_.size());
  Tensor gx = grad_out;
  float* g = gx.data();
  for (std::size_t i = 0; i < gx.size(); ++i) g[i] *= mask_[i];
  return gx;
}

// --- Conv2d ------------------------------------------------------------------

Conv2d::Conv2d(std::size_t in_channels, std::size_t filters,
               std::size_t kernel)
    : in_c_(in_channels),
      filters_(filters),
      k_(kernel),
      params_(filters * in_channels * kernel * kernel + filters),
      grads_(params_.size()) {
  P2PFL_CHECK(in_channels > 0 && filters > 0);
  P2PFL_CHECK(kernel % 2 == 1);  // same padding needs an odd kernel
}

void Conv2d::init(Rng& rng) {
  const std::size_t fan_in = in_c_ * k_ * k_;
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  const std::size_t nw = filters_ * in_c_ * k_ * k_;
  for (std::size_t i = 0; i < nw; ++i) {
    params_[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  for (std::size_t i = nw; i < params_.size(); ++i) params_[i] = 0.0f;
}

Tensor Conv2d::forward(const Tensor& x, bool /*train*/, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() == 4 && x.dim(1) == in_c_);
  cached_input_ = x;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t ckk = in_c_ * k_ * k_;
  const std::size_t blocks = (filters_ + kConvBlock - 1) / kConvBlock;
  // Weights regrouped per block of filters, filter innermost and zero-
  // padded to whole blocks: wb[block][c][ky][kx][f % kConvBlock].
  std::vector<float> wb(blocks * ckk * kConvBlock, 0.0f);
  std::vector<float> bb(blocks * kConvBlock, 0.0f);
  for (std::size_t f = 0; f < filters_; ++f) {
    float* dst = wb.data() + (f / kConvBlock) * ckk * kConvBlock +
                 f % kConvBlock;
    for (std::size_t j = 0; j < ckk; ++j) {
      dst[j * kConvBlock] = params_[f * ckk + j];
    }
    bb[f] = params_[filters_ * ckk + f];
  }

  Tensor y({batch, filters_, h, w});
  parallel_for(0, batch * blocks, [&](std::size_t i) {
    const std::size_t s = i / blocks, b = i % blocks;
    conv_forward_block(x.data() + s * in_c_ * h * w,
                       wb.data() + b * ckk * kConvBlock,
                       bb.data() + b * kConvBlock,
                       y.data() + (s * filters_ + b * kConvBlock) * h * w,
                       std::min(kConvBlock, filters_ - b * kConvBlock), in_c_,
                       h, w, k_);
  });
  return y;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  P2PFL_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == batch &&
              grad_out.dim(1) == filters_ && grad_out.dim(2) == h &&
              grad_out.dim(3) == w);
  const std::size_t hw = h * w, kk = k_ * k_, ckk = in_c_ * kk;
  // Channels-last copy of the input: xT[s][p][c].
  std::vector<float> xt(batch * hw * in_c_);
  parallel_for(0, batch, [&](std::size_t s) {
    transpose(x.data() + s * in_c_ * hw, in_c_, hw, xt.data() + s * hw * in_c_);
  });

  // Weight and bias gradients: one filter per task, accumulated onto the
  // existing grads in a channels-last copy of the filter.
  float* gb = grads_.data() + filters_ * ckk;
  parallel_for(0, filters_, [&](std::size_t f) {
    float* gwf = grads_.data() + f * ckk;
    std::vector<float> gwt(ckk);
    transpose(gwf, in_c_, kk, gwt.data());
    conv_filter_grad(grad_out.data(), xt.data(), gwt.data(), gb + f, batch,
                     filters_, f, in_c_, h, w, k_);
    transpose(gwt.data(), kk, in_c_, gwf);
  });
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  backward_params(grad_out);
  const std::size_t batch = grad_out.dim(0), h = grad_out.dim(2),
                    w = grad_out.dim(3);
  const std::size_t hw = h * w, kk = k_ * k_, ckk = in_c_ * kk;
  // Channels-last copy of the weights: wT[f][ky][kx][c].
  std::vector<float> wt(filters_ * ckk);
  for (std::size_t f = 0; f < filters_; ++f) {
    transpose(params_.data() + f * ckk, in_c_, kk, wt.data() + f * ckk);
  }

  // Input gradient: one sample per task.
  Tensor gx({batch, in_c_, h, w});
  parallel_for(0, batch, [&](std::size_t s) {
    std::vector<float> gxt(hw * in_c_, 0.0f);
    conv_input_grad(grad_out.data() + s * filters_ * hw, wt.data(),
                    gxt.data(), filters_, in_c_, h, w, k_);
    transpose(gxt.data(), hw, in_c_, gx.data() + s * in_c_ * hw);
  });
  return gx;
}

// --- MaxPool2d ---------------------------------------------------------------

Tensor MaxPool2d::forward(const Tensor& x, bool /*train*/, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() == 4);
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  P2PFL_CHECK_MSG(h % 2 == 0 && w % 2 == 0,
                  "MaxPool2d expects even spatial dims");
  in_shape_ = x.shape();
  const std::size_t oh = h / 2, ow = w / 2;
  Tensor y({batch, c, oh, ow});
  argmax_.assign(y.size(), 0);
  for (std::size_t s = 0; s < batch * c; ++s) {
    const float* xc = x.data() + s * h * w;
    float* yc = y.data() + s * oh * ow;
    std::size_t* am = argmax_.data() + s * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t dy = 0; dy < 2; ++dy) {
          for (std::size_t dx = 0; dx < 2; ++dx) {
            const std::size_t idx = (oy * 2 + dy) * w + (ox * 2 + dx);
            if (xc[idx] > best) {
              best = xc[idx];
              best_idx = idx;
            }
          }
        }
        yc[oy * ow + ox] = best;
        am[oy * ow + ox] = best_idx;
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  P2PFL_CHECK(grad_out.size() == argmax_.size());
  Tensor gx(in_shape_);
  const std::size_t h = in_shape_[2], w = in_shape_[3];
  const std::size_t oh = h / 2, ow = w / 2;
  const std::size_t planes = in_shape_[0] * in_shape_[1];
  for (std::size_t s = 0; s < planes; ++s) {
    const float* gy = grad_out.data() + s * oh * ow;
    const std::size_t* am = argmax_.data() + s * oh * ow;
    float* gxc = gx.data() + s * h * w;
    for (std::size_t i = 0; i < oh * ow; ++i) gxc[am[i]] += gy[i];
  }
  return gx;
}

// --- Flatten -----------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool /*train*/, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() >= 2);
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_);
}

}  // namespace p2pfl::fl
