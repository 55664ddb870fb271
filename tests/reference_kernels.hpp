// Scalar direct Conv2d / Dense kernels: the oracle the library's blocked
// kernels are checked against bit for bit (tests/conv_kernel_test.cpp).
//
// The loop bodies are the library's original direct kernels, unchanged,
// lifted out of the layer classes into free functions over raw arrays.
// Their loop nests define the summation order every output must keep:
// the fast kernels may reorder work across outputs but never the terms
// of one output. Serial on purpose: the oracle must not depend on the
// worker pool it checks.
#pragma once

#include <cstddef>
#include <vector>

namespace p2pfl::fl::reference {

/// Same-padding convolution, (B, C, H, W) -> (B, F, H, W). `wt` holds the
/// weights (F*C*k*k) followed by the bias (F), as Conv2d::params() does.
inline std::vector<float> conv2d_forward(const float* x, std::size_t batch,
                                         std::size_t in_c, std::size_t h,
                                         std::size_t w, const float* wt,
                                         std::size_t filters,
                                         std::size_t k) {
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(k / 2);
  std::vector<float> y(batch * filters * h * w, 0.0f);
  const float* bias = wt + filters * in_c * k * k;
  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x + s * in_c * h * w;
    float* yout = y.data() + s * filters * h * w;
    for (std::size_t f = 0; f < filters; ++f) {
      const float* wf = wt + f * in_c * k * k;
      for (std::size_t oy = 0; oy < h; ++oy) {
        for (std::size_t ox = 0; ox < w; ++ox) {
          double acc = bias[f];
          for (std::size_t c = 0; c < in_c; ++c) {
            const float* xc = xin + c * h * w;
            const float* wc = wf + c * k * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy + ky) - pad;
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) - pad;
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                acc += wc[ky * k + kx] * xc[iy * w + ix];
              }
            }
          }
          yout[f * h * w + oy * w + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

/// Backward of conv2d_forward: returns the input gradient and accumulates
/// the weight and bias gradients onto `gw` (same layout as `wt`).
inline std::vector<float> conv2d_backward(const float* x, std::size_t batch,
                                          std::size_t in_c, std::size_t h,
                                          std::size_t w, const float* wt,
                                          std::size_t filters, std::size_t k,
                                          const float* grad_out, float* gw) {
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(k / 2);
  float* gb = gw + filters * in_c * k * k;
  std::vector<float> gx(batch * in_c * h * w, 0.0f);
  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x + s * in_c * h * w;
    const float* gy = grad_out + s * filters * h * w;
    float* gxi = gx.data() + s * in_c * h * w;
    for (std::size_t f = 0; f < filters; ++f) {
      const float* wf = wt + f * in_c * k * k;
      float* gwf = gw + f * in_c * k * k;
      const float* gyf = gy + f * h * w;
      for (std::size_t oy = 0; oy < h; ++oy) {
        for (std::size_t ox = 0; ox < w; ++ox) {
          const float g = gyf[oy * w + ox];
          if (g == 0.0f) continue;
          gb[f] += g;
          for (std::size_t c = 0; c < in_c; ++c) {
            const float* xc = xin + c * h * w;
            float* gxc = gxi + c * h * w;
            const float* wc = wf + c * k * k;
            float* gwc = gwf + c * k * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy + ky) - pad;
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) - pad;
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                gwc[ky * k + kx] += g * xc[iy * w + ix];
                gxc[iy * w + ix] += g * wc[ky * k + kx];
              }
            }
          }
        }
      }
    }
  }
  return gx;
}

/// Fully connected, (B, in) -> (B, out). `wt` holds the weights (out*in)
/// followed by the bias (out), as Dense::params() does.
inline std::vector<float> dense_forward(const float* x, std::size_t batch,
                                        std::size_t in, const float* wt,
                                        std::size_t out) {
  std::vector<float> y(batch * out, 0.0f);
  const float* b = wt + out * in;
  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x + s * in;
    float* yout = y.data() + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wrow = wt + o * in;
      double acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * xin[i];
      yout[o] = static_cast<float>(acc);
    }
  }
  return y;
}

/// Backward of dense_forward: returns the input gradient and accumulates
/// the weight and bias gradients onto `gw` (same layout as `wt`).
inline std::vector<float> dense_backward(const float* x, std::size_t batch,
                                         std::size_t in, const float* wt,
                                         std::size_t out,
                                         const float* grad_out, float* gw) {
  float* gb = gw + out * in;
  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x + s * in;
    const float* gy = grad_out + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      float* gwrow = gw + o * in;
      const float g = gy[o];
      for (std::size_t i = 0; i < in; ++i) gwrow[i] += g * xin[i];
      gb[o] += g;
    }
  }
  std::vector<float> gx(batch * in, 0.0f);
  for (std::size_t s = 0; s < batch; ++s) {
    const float* gy = grad_out + s * out;
    float* gxi = gx.data() + s * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wrow = wt + o * in;
      const float g = gy[o];
      for (std::size_t i = 0; i < in; ++i) gxi[i] += g * wrow[i];
    }
  }
  return gx;
}

}  // namespace p2pfl::fl::reference
