#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "telemetry/metrics.h"
#include "util/logging.h"
#include "util/simd_footprint.h"

namespace xplace::simd {

// ---------------------------------------------------------------------------
// Scalar backend. These loops are the pre-SIMD kernels verbatim (same
// expression, same evaluation order) so the scalar backend is bitwise-
// identical to the historical flow. `__restrict` + a hoisted bound lets the
// compiler vectorize the fallback where it can.
// ---------------------------------------------------------------------------
namespace scalar {

#define XP_SIMD_BINARY(fn, expr)                                             \
  void fn(const float* __restrict a, const float* __restrict b,              \
          float* __restrict o, std::size_t n) {                              \
    for (std::size_t i = 0; i < n; ++i) o[i] = (expr);                       \
  }

XP_SIMD_BINARY(add, a[i] + b[i])
XP_SIMD_BINARY(sub, a[i] - b[i])
XP_SIMD_BINARY(mul, a[i] * b[i])
XP_SIMD_BINARY(maximum, std::max(a[i], b[i]))
#undef XP_SIMD_BINARY

#define XP_SIMD_UNARY(fn, expr)                                   \
  void fn(const float* __restrict a, float* __restrict o,         \
          std::size_t n) {                                        \
    for (std::size_t i = 0; i < n; ++i) o[i] = (expr);            \
  }

XP_SIMD_UNARY(vexp, std::exp(a[i]))
XP_SIMD_UNARY(reciprocal, 1.0f / a[i])
XP_SIMD_UNARY(neg, -a[i])
XP_SIMD_UNARY(vabs, std::fabs(a[i]))
#undef XP_SIMD_UNARY

void mul_scalar(const float* __restrict a, float s, float* __restrict o,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] * s;
}
void add_scalar(const float* __restrict a, float s, float* __restrict o,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = a[i] + s;
}
void clamp_min(const float* __restrict a, float lo, float* __restrict o,
               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) o[i] = std::max(a[i], lo);
}
void fill(float* __restrict a, float v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] = v;
}
void copy(float* __restrict dst, const float* __restrict src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
}
void add_(float* __restrict a, const float* __restrict b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
}
void axpy_(float* __restrict a, const float* __restrict b, float s,
           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] += s * b[i];
}
void scal_(float* __restrict a, float s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] *= s;
}
void axpby_(float* __restrict a, float alpha, const float* __restrict b,
            float beta, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) a[i] = alpha * a[i] + beta * b[i];
}

double sum(const float* __restrict a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i];
  return acc;
}
double abs_sum(const float* __restrict a, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += std::fabs(a[i]);
  return acc;
}
float max_value(const float* __restrict a, std::size_t n) {
  float m = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, a[i]);
  return m;
}
float min_value(const float* __restrict a, std::size_t n) {
  float m = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) m = std::min(m, a[i]);
  return m;
}
double dot(const float* __restrict a, const float* __restrict b,
           std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    acc += static_cast<double>(a[i]) * b[i];
  return acc;
}
double diff_sq_sum(const float* __restrict a, const float* __restrict b,
                   std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc;
}
float abs_max(const float* __restrict a, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i]));
  return m;
}
void finite_stats(const float* __restrict a, std::size_t n,
                  std::size_t* nonfinite, double* abs_sum_out) {
  std::size_t bad = 0;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = a[i];
    if (std::isfinite(v)) acc += std::fabs(v); else ++bad;
  }
  *nonfinite = bad;
  *abs_sum_out = acc;
}

double ddot(const double* __restrict a, const double* __restrict b,
            std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// One net-lane WA group, lane by lane, as the historical per-net loop ran
// it: std::exp terms (a float, held in double), double products and sums.
namespace {

// One lane and axis over gathered positions p: the stable WA sums, the
// weighted gradient into gout[i·stride] when gout is non-null, and WL.
double wa_axis(const float* p, std::size_t n, float lo, float hi, float ig,
               float* s, float* u, float w, float* gout, std::size_t stride) {
  double e_max = 0.0, xe_max = 0.0, e_min = 0.0, xe_min = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::exp((p[i] - hi) * ig);
    u[i] = std::exp((lo - p[i]) * ig);
    e_max += s[i];
    xe_max += p[i] * static_cast<double>(s[i]);
    e_min += u[i];
    xe_min += p[i] * static_cast<double>(u[i]);
  }
  const double wl_max = xe_max / e_max, wl_min = xe_min / e_min;
  if (gout != nullptr) {
    const double i_max = 1.0 / e_max, i_min = 1.0 / e_min;
    for (std::size_t i = 0; i < n; ++i) {
      const double d_max = s[i] * (1.0 + (p[i] - wl_max) * ig) * i_max;
      const double d_min = u[i] * (1.0 - (p[i] - wl_min) * ig) * i_min;
      gout[i * stride] = w * static_cast<float>(d_max - d_min);
    }
  }
  return wl_max - wl_min;
}

}  // namespace

void wa_group(const WaGroup& g) {
  const std::size_t n = g.degree, lanes = g.lanes;
  float* const px = g.scratch;
  float* const py = px + n;
  float* const s = py + n;
  float* const u = s + n;
  for (std::size_t l = 0; l < lanes; ++l) {
    float min_x = std::numeric_limits<float>::max();
    float max_x = std::numeric_limits<float>::lowest();
    float min_y = min_x, max_y = max_x;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i * lanes + l;
      px[i] = g.x[g.cell[k]] + g.ox[k];
      py[i] = g.y[g.cell[k]] + g.oy[k];
      min_x = std::min(min_x, px[i]);
      max_x = std::max(max_x, px[i]);
      min_y = std::min(min_y, py[i]);
      max_y = std::max(max_y, py[i]);
    }
    const float w = g.weight[l];
    if (g.hpwl != nullptr) {
      g.hpwl[l] = static_cast<double>(w) * ((max_x - min_x) + (max_y - min_y));
    }
    if (g.wl == nullptr && g.gx == nullptr) continue;
    const bool grad = g.gx != nullptr;
    const double wl_x = wa_axis(px, n, min_x, max_x, g.inv_gamma, s, u, w,
                                grad ? g.gx + l : nullptr, lanes);
    const double wl_y = wa_axis(py, n, min_y, max_y, g.inv_gamma, s, u, w,
                                grad ? g.gy + l : nullptr, lanes);
    if (g.wl != nullptr) g.wl[l] = static_cast<double>(w) * (wl_x + wl_y);
  }
}

// Density footprints (util/simd_footprint.h): the historical per-bin loop.
// Each overlap is ow·oh, bins with a non-positive row overlap are skipped,
// and the gather sums bin by bin.
struct Footprints {
  static double row(const DensityGeom& g, const CellBox& b, int by) {
    const double bin_ly = g.ly + by * g.bin_h;
    return std::min(b.hy, bin_ly + g.bin_h) - std::max(b.ly, bin_ly);
  }
  static const double* rows(const DensityGeom& g, const CellBox& b,
                            double* oh) {
    for (int j = 0; j <= b.by1 - b.by0; ++j) oh[j] = row(g, b, b.by0 + j);
    return oh;
  }
  template <typename Oh>
  static void scatter(double* col, int ny, Oh&& oh, double ow, double scale) {
    for (int j = 0; j < ny; ++j) {
      const double h = oh[j];
      if (h > 0.0) col[j] += ow * h * scale;
    }
  }
  template <typename Oh>
  static void gather(const double* ex, const double* ey, int ny, Oh&& oh,
                     double ow, double& fx, double& fy) {
    for (int j = 0; j < ny; ++j) {
      const double h = oh[j];
      if (h <= 0.0) continue;
      fx += ow * h * ex[j];
      fy += ow * h * ey[j];
    }
  }
  struct Rows {  // a span's row overlaps, computed on demand
    const DensityGeom& g;
    const CellBox& b;
    double operator[](int j) const { return row(g, b, b.by0 + j); }
  };
  static Rows span(const DensityGeom& g, const CellBox& b) { return {g, b}; }
};
void density_scatter(const DensityGeom& g, const float* x, const float* y,
                     CellSet cells, double* map) {
  footprint::scatter<Footprints>(g, x, y, cells, map);
}
void density_gather(const DensityGeom& g, const float* x, const float* y,
                    CellSet cells, const double* ex, const double* ey,
                    float coeff, float* grad_x, float* grad_y) {
  footprint::gather<Footprints>(g, x, y, cells, ex, ey, coeff, grad_x, grad_y);
}

// One radix-2 stage, expressed in std::complex exactly as the historical
// fft() loop body so the scalar backend stays bitwise-identical.
void fft_pass(double* d, const double* tw, std::size_t n, std::size_t len,
              std::size_t step) {
  auto* data = reinterpret_cast<std::complex<double>*>(d);
  const auto* twc = reinterpret_cast<const std::complex<double>*>(tw);
  for (std::size_t i = 0; i < n; i += len) {
    for (std::size_t k = 0; k < len / 2; ++k) {
      const std::complex<double> w = twc[k * step];
      const std::complex<double> u = data[i + k];
      const std::complex<double> v = data[i + k + len / 2] * w;
      data[i + k] = u + v;
      data[i + k + len / 2] = u - v;
    }
  }
}
void conj_scale(double* d, std::size_t n, double scale) {
  auto* data = reinterpret_cast<std::complex<double>*>(d);
  for (std::size_t i = 0; i < n; ++i) data[i] = std::conj(data[i]) * scale;
}

// ---- plan-fused DCT passes (fft/plan.h) -----------------------------------
// Expression order mirrors the AVX2 lane ops exactly — single-rounded
// mul/add/sub/addsub chains, no FMA — so the two backends are bitwise-
// identical by construction (DESIGN.md §15). Sequences a and b ride one
// complex value as (re, im).

namespace {

// (xr,xi)·(wr,wi) in the addsub order the AVX2 cmul helpers produce.
inline void plan_cmul(double xr, double xi, double wr, double wi,
                      double* out_r, double* out_i) {
  *out_r = xr * wr - xi * wi;
  *out_i = xi * wr + xr * wi;
}

// z_k = ph_k·g_k for one inverse-head slot holding frequency k.
inline void plan_inv_g(const double* a, const double* b, std::size_t stride,
                       const double* ph, std::size_t k, std::size_t n,
                       int sine, double* zr, double* zi) {
  double gr, gi;
  if (k == 0) {
    gr = sine ? 0.0 : a[0];
    gi = sine ? 0.0 : b[0];
  } else {
    const std::size_t ks = k * stride;
    const std::size_t ms = (n - k) * stride;
    if (sine) {
      gr = a[ms] - b[ks];
      gi = b[ms] + a[ks];
    } else {
      gr = a[ks] - b[ms];
      gi = b[ks] + a[ms];
    }
  }
  plan_cmul(gr, gi, ph[2 * k], ph[2 * k + 1], zr, zi);
}

// Disentangle Z_k (p,q) / Z_{n−k} (r,s) into the two real spectra and apply
// the Makhoul rotate for output frequencies k and n−k of both sequences.
inline void plan_fwd_rotate(double p, double q, double r, double s,
                            const double* ph, std::size_t k, std::size_t n,
                            double* a, double* b, std::size_t stride) {
  const double ar = (p + r) * 0.5;
  const double br = (q + s) * 0.5;
  const double ai = (q - s) * 0.5;
  const double bi = (p - r) * -0.5;
  const double c1 = ph[2 * k], d1 = ph[2 * k + 1];
  const double c2 = ph[2 * (n - k)], d2 = ph[2 * (n - k) + 1];
  a[k * stride] = ar * c1 - ai * d1;
  b[k * stride] = br * c1 - bi * d1;
  a[(n - k) * stride] = ar * c2 + ai * d2;
  b[(n - k) * stride] = br * c2 + bi * d2;
}

}  // namespace

void plan_fwd_head(const double* a, const double* b, std::size_t stride,
                   const std::uint32_t* perm, double* z, std::size_t n) {
  if (n == 2) {  // the lone butterfly belongs to the tail's tw stage
    z[0] = a[perm[0] * stride];
    z[1] = b[perm[0] * stride];
    z[2] = a[perm[1] * stride];
    z[3] = b[perm[1] * stride];
    return;
  }
  for (std::size_t j = 0; j < n; j += 2) {
    const std::size_t s0 = perm[j] * stride;
    const std::size_t s1 = perm[j + 1] * stride;
    const double ur = a[s0], ui = b[s0];
    const double vr = a[s1], vi = b[s1];
    z[2 * j] = ur + vr;
    z[2 * j + 1] = ui + vi;
    z[2 * j + 2] = ur - vr;
    z[2 * j + 3] = ui - vi;
  }
}

void plan_inv_head(const double* a, const double* b, std::size_t stride,
                   const std::uint32_t* brev, const double* ph, double* z,
                   std::size_t n, int sine) {
  if (n == 2) {
    plan_inv_g(a, b, stride, ph, brev[0], n, sine, &z[0], &z[1]);
    plan_inv_g(a, b, stride, ph, brev[1], n, sine, &z[2], &z[3]);
    return;
  }
  for (std::size_t j = 0; j < n; j += 2) {
    double ur, ui, vr, vi;
    plan_inv_g(a, b, stride, ph, brev[j], n, sine, &ur, &ui);
    plan_inv_g(a, b, stride, ph, brev[j + 1], n, sine, &vr, &vi);
    z[2 * j] = ur + vr;
    z[2 * j + 1] = ui + vi;
    z[2 * j + 2] = ur - vr;
    z[2 * j + 3] = ui - vi;
  }
}

void plan_fwd_tail(const double* z, const double* tw, const double* ph,
                   double* a, double* b, std::size_t stride, std::size_t n) {
  const std::size_t h = n / 2;
  // j = 0 feeds the two self-conjugate frequencies 0 and n/2, where both
  // real spectra are purely real: Z_0 = (A_0, B_0), Z_{n/2} = (A_{n/2},
  // B_{n/2}), and the rotate collapses to ·1 resp. ·Re(ph_{n/2}).
  {
    const double ur = z[0], ui = z[1];
    double vr, vi;
    plan_cmul(z[2 * h], z[2 * h + 1], tw[0], tw[1], &vr, &vi);
    a[0] = ur + vr;
    b[0] = ui + vi;
    const double c = ph[2 * h];
    a[h * stride] = (ur - vr) * c;
    b[h * stride] = (ui - vi) * c;
  }
  for (std::size_t k = 1; 4 * k <= n; ++k) {
    const std::size_t jB = h - k;
    double vr, vi;
    plan_cmul(z[2 * (k + h)], z[2 * (k + h) + 1], tw[2 * k], tw[2 * k + 1],
              &vr, &vi);
    const double sAr = z[2 * k] + vr, sAi = z[2 * k + 1] + vi;      // Z_k
    const double dAr = z[2 * k] - vr, dAi = z[2 * k + 1] - vi;      // Z_{k+h}
    if (k == jB) {  // k = n/4 mirrors onto itself: one pair, done
      plan_fwd_rotate(sAr, sAi, dAr, dAi, ph, k, n, a, b, stride);
      break;
    }
    plan_cmul(z[2 * (jB + h)], z[2 * (jB + h) + 1], tw[2 * jB],
              tw[2 * jB + 1], &vr, &vi);
    const double sBr = z[2 * jB] + vr, sBi = z[2 * jB + 1] + vi;    // Z_{h−k}
    const double dBr = z[2 * jB] - vr, dBi = z[2 * jB + 1] - vi;    // Z_{n−k}
    plan_fwd_rotate(sAr, sAi, dBr, dBi, ph, k, n, a, b, stride);
    plan_fwd_rotate(sBr, sBi, dAr, dAi, ph, jB, n, a, b, stride);
  }
}

void plan_inv_tail(const double* z, const double* tw, double* a, double* b,
                   std::size_t stride, std::size_t n, int sine) {
  const std::size_t h = n / 2;
  const double e = 1.0 / static_cast<double>(n);  // exact: n a power of two
  const double o = sine ? -e : e;
  if (n == 2) {
    double vr, vi;
    plan_cmul(z[2], z[3], tw[0], tw[1], &vr, &vi);
    a[0] = (z[0] + vr) * e;
    b[0] = (z[1] + vi) * e;
    a[stride] = (z[0] - vr) * o;
    b[stride] = (z[1] - vi) * o;
    return;
  }
  // y = FFT(z) = n·(w_a + i·w_b); the Makhoul unpack reads w_t into slot 2t
  // and w_{n−1−t} into 2t+1, so butterfly i (sum y_i, diff y_{i+h}) pairs
  // with butterfly h−1−i and the four outputs land at 2i, 2i+1, n−2−2i,
  // n−1−2i — all distinct for every i < n/4.
  for (std::size_t i = 0; 4 * i < n; ++i) {
    const std::size_t jB = h - 1 - i;
    double vr, vi;
    plan_cmul(z[2 * (i + h)], z[2 * (i + h) + 1], tw[2 * i], tw[2 * i + 1],
              &vr, &vi);
    const double sAr = z[2 * i] + vr, sAi = z[2 * i + 1] + vi;
    const double dAr = z[2 * i] - vr, dAi = z[2 * i + 1] - vi;
    plan_cmul(z[2 * (jB + h)], z[2 * (jB + h) + 1], tw[2 * jB],
              tw[2 * jB + 1], &vr, &vi);
    const double sBr = z[2 * jB] + vr, sBi = z[2 * jB + 1] + vi;
    const double dBr = z[2 * jB] - vr, dBi = z[2 * jB + 1] - vi;
    a[(2 * i) * stride] = sAr * e;
    b[(2 * i) * stride] = sAi * e;
    a[(2 * i + 1) * stride] = dBr * o;
    b[(2 * i + 1) * stride] = dBi * o;
    a[(n - 2 - 2 * i) * stride] = sBr * e;
    b[(n - 2 - 2 * i) * stride] = sBi * e;
    a[(n - 1 - 2 * i) * stride] = dAr * o;
    b[(n - 1 - 2 * i) * stride] = dAi * o;
  }
}

void nesterov_update(float* __restrict v, float* __restrict v_prev,
                     float* __restrict g_prev, float* __restrict u,
                     const float* __restrict g, const float* __restrict lo,
                     const float* __restrict hi, std::size_t n, double eta,
                     float coef) {
  for (std::size_t c = 0; c < n; ++c) {
    v_prev[c] = v[c];
    g_prev[c] = g[c];
    const float u_new =
        std::clamp(static_cast<float>(v[c] - eta * g[c]), lo[c], hi[c]);
    v[c] = std::clamp(u_new + coef * (u_new - u[c]), lo[c], hi[c]);
    u[c] = u_new;
  }
}
void precond_apply(float* __restrict gx, float* __restrict gy,
                   const float* __restrict nets, const float* __restrict area,
                   float lambda, std::size_t n) {
  for (std::size_t c = 0; c < n; ++c) {
    const float p = std::max(1.0f, nets[c] + lambda * area[c]);
    gx[c] /= p;
    gy[c] /= p;
  }
}

}  // namespace scalar

const Kernels& scalar_kernels() {
  static const Kernels k = {
      .isa = Isa::kScalar,
      .name = "scalar",
      .add = scalar::add,
      .sub = scalar::sub,
      .mul = scalar::mul,
      .maximum = scalar::maximum,
      .vexp = scalar::vexp,
      .reciprocal = scalar::reciprocal,
      .neg = scalar::neg,
      .vabs = scalar::vabs,
      .mul_scalar = scalar::mul_scalar,
      .add_scalar = scalar::add_scalar,
      .clamp_min = scalar::clamp_min,
      .fill = scalar::fill,
      .copy = scalar::copy,
      .add_ = scalar::add_,
      .axpy_ = scalar::axpy_,
      .scal_ = scalar::scal_,
      .axpby_ = scalar::axpby_,
      .sum = scalar::sum,
      .abs_sum = scalar::abs_sum,
      .max_value = scalar::max_value,
      .min_value = scalar::min_value,
      .dot = scalar::dot,
      .diff_sq_sum = scalar::diff_sq_sum,
      .abs_max = scalar::abs_max,
      .finite_stats = scalar::finite_stats,
      .ddot = scalar::ddot,
      .wa_group = scalar::wa_group,
      .density_scatter = scalar::density_scatter,
      .density_gather = scalar::density_gather,
      .fft_pass = scalar::fft_pass,
      .conj_scale = scalar::conj_scale,
      .plan_fwd_head = scalar::plan_fwd_head,
      .plan_inv_head = scalar::plan_inv_head,
      .plan_fwd_tail = scalar::plan_fwd_tail,
      .plan_inv_tail = scalar::plan_inv_tail,
      .nesterov_update = scalar::nesterov_update,
      .precond_apply = scalar::precond_apply,
  };
  return k;
}

// ---------------------------------------------------------------------------
// Runtime dispatch.
// ---------------------------------------------------------------------------

// Defined in simd_avx2.cpp; nullptr when the build target has no AVX2 path.
const Kernels* avx2_kernels_or_null();

bool cpu_has_avx2() { return avx2_kernels_or_null() != nullptr; }

const Kernels& avx2_kernels() {
  const Kernels* k = avx2_kernels_or_null();
  assert(k != nullptr && "avx2_kernels() requires cpu_has_avx2()");
  return *k;
}

const char* isa_name(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

Isa resolve_policy(const char* value) {
  if (value == nullptr || value[0] == '\0' ||
      std::strcmp(value, "auto") == 0) {
    return cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
  }
  if (std::strcmp(value, "off") == 0 || std::strcmp(value, "scalar") == 0) {
    return Isa::kScalar;
  }
  if (std::strcmp(value, "avx2") == 0) {
    if (cpu_has_avx2()) return Isa::kAvx2;
    XP_WARN("XPLACE_SIMD=avx2 requested but this CPU lacks AVX2+FMA; "
            "falling back to scalar");
    return Isa::kScalar;
  }
  XP_WARN("unknown SIMD backend '%s' (off|scalar|avx2|auto); using auto",
          value);
  return cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar;
}

namespace {

const Kernels* table_for(Isa isa) {
  return isa == Isa::kAvx2 ? &avx2_kernels() : &scalar_kernels();
}

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* resolve_from_env() {
  const Kernels* k = table_for(resolve_policy(std::getenv("XPLACE_SIMD")));
  const Kernels* expected = nullptr;
  // First resolver wins; a concurrent explicit select() is not overwritten.
  g_active.compare_exchange_strong(expected, k, std::memory_order_acq_rel);
  return g_active.load(std::memory_order_acquire);
}

}  // namespace

const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) k = resolve_from_env();
  return *k;
}

Isa isa() { return active().isa; }

void select(Isa isa) {
  g_active.store(table_for(isa), std::memory_order_release);
}

bool select(const char* name) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "off") == 0 || std::strcmp(name, "scalar") == 0) {
    select(Isa::kScalar);
    return true;
  }
  if (std::strcmp(name, "avx2") == 0) {
    if (!cpu_has_avx2()) return false;
    select(Isa::kAvx2);
    return true;
  }
  if (name[0] == '\0' || std::strcmp(name, "auto") == 0) {
    select(cpu_has_avx2() ? Isa::kAvx2 : Isa::kScalar);
    return true;
  }
  return false;
}

void publish(telemetry::Registry& registry) {
  registry.gauge("exec.simd.isa").set(static_cast<double>(isa()));
}

}  // namespace xplace::simd
