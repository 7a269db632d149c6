// AVX2+FMA backend of the SIMD kernel layer (src/util/simd.h).
//
// Compiled into every build via per-function target attributes, selected at
// runtime only when the CPU reports AVX2+FMA — no global -mavx2 flag, so the
// rest of the binary stays baseline-x86-64 and the scalar backend stays
// bitwise-identical to the pre-SIMD kernels.
//
// Lane policy (DESIGN.md §10):
//   * elementwise f32 kernels use mul/add (never FMA) so they are bitwise-
//     equal to scalar; this TU is built with -ffp-contract=off so the
//     compiler cannot fuse them behind our back,
//   * reductions accumulate per-lane and fold lanes in one fixed order —
//     deterministic run-to-run, different rounding than scalar (documented),
//   * exp is a Cephes-style degree-5 polynomial on floats (≤2 ULP of expf on
//     the WA input range (-87.3, 0]; arguments above 88.7 are clamped, and
//     arguments at or below -87.3 give +0, never a subnormal),
//   * tails are handled with AVX2 masked loads/stores (no out-of-bounds
//     touches — the ASan lane runs the parity sweep over head/tail sizes).
#include "util/simd.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstdint>
#include <limits>

// The shared footprint loop, compiled for this backend's target.
#pragma GCC push_options
#pragma GCC target("avx2,fma")
#include "util/simd_footprint.h"
#pragma GCC pop_options

#define XP_TGT __attribute__((target("avx2,fma")))

namespace xplace::simd {
namespace avx2 {
namespace {

alignas(32) constexpr std::int32_t kMask32[16] = {-1, -1, -1, -1, -1, -1, -1,
                                                  -1, 0,  0,  0,  0,  0,  0,
                                                  0,  0};
alignas(32) constexpr std::int64_t kMask64[8] = {-1, -1, -1, -1, 0, 0, 0, 0};

/// Load mask with the low `rem` (1..7) f32 lanes enabled.
XP_TGT inline __m256i mask8(std::size_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask32 + (8 - rem)));
}
/// Load mask with the low `rem` (1..3) f64 lanes enabled.
XP_TGT inline __m256i mask4(std::size_t rem) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask64 + (4 - rem)));
}

/// Fixed-order horizontal sum: lane0+lane1+lane2+lane3 (deterministic).
XP_TGT inline double hsum4(__m256d v) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, v);
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

/// Widen the low/high float quads of `v` to doubles.
XP_TGT inline __m256d lo_pd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_castps256_ps128(v));
}
XP_TGT inline __m256d hi_pd(__m256 v) {
  return _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
}

/// Cephes-style vector expf (degree-5 minimax on the reduced range, exact
/// power-of-two scaling). On the WA range (-87.3, 0] the result is within
/// 2 ULP of std::expf; inputs above 88.722 are clamped. Inputs at or below
/// -87.336 (where expf turns subnormal) give +0, never a subnormal: those
/// lanes run the polynomial on 0 and are masked after it, so no subnormal
/// reaches the FPU here or in the multiplies that read the result.
XP_TGT inline __m256 exp256(__m256 x) {
  const __m256 hi = _mm256_set1_ps(88.72283935546875f);
  const __m256 lo = _mm256_set1_ps(-87.33654785156250f);
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  const __m256 c1 = _mm256_set1_ps(0.693359375f);
  const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
  const __m256 one = _mm256_set1_ps(1.0f);

  const __m256 under = _mm256_cmp_ps(x, lo, _CMP_LE_OQ);
  x = _mm256_andnot_ps(under, _mm256_min_ps(x, hi));
  __m256 fx =
      _mm256_floor_ps(_mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f)));
  // Cody–Waite reduction: r = x − fx·ln2 (split constant).
  x = _mm256_fnmadd_ps(fx, c1, x);
  x = _mm256_fnmadd_ps(fx, c2, x);

  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, _mm256_mul_ps(x, x), x);
  y = _mm256_add_ps(y, one);

  // 2^fx via exponent-field insertion (fx ∈ [-126, 128] after the clamp).
  const __m256i imm = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(fx), _mm256_set1_epi32(127)), 23);
  return _mm256_andnot_ps(under, _mm256_mul_ps(y, _mm256_castsi256_ps(imm)));
}

}  // namespace

// ---- elementwise f32, out-of-place ----------------------------------------

#define XP_AVX2_BINARY(fn, vop, sexpr)                                     \
  XP_TGT void fn(const float* a, const float* b, float* o, std::size_t n) { \
    std::size_t i = 0;                                                     \
    for (; i + 8 <= n; i += 8) {                                           \
      _mm256_storeu_ps(                                                    \
          o + i, vop(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));     \
    }                                                                      \
    if (i < n) {                                                           \
      const __m256i m = mask8(n - i);                                      \
      const __m256 va = _mm256_maskload_ps(a + i, m);                      \
      const __m256 vb = _mm256_maskload_ps(b + i, m);                      \
      _mm256_maskstore_ps(o + i, m, vop(va, vb));                          \
    }                                                                      \
  }

XP_AVX2_BINARY(add, _mm256_add_ps, )
XP_AVX2_BINARY(sub, _mm256_sub_ps, )
XP_AVX2_BINARY(mul, _mm256_mul_ps, )
#undef XP_AVX2_BINARY

// std::max(a,b) is (a<b)?b:a — i.e. returns `a` on ties/NaN — which is
// max_ps with the operand order swapped.
XP_TGT void maximum(const float* a, const float* b, float* o, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_max_ps(_mm256_loadu_ps(b + i), _mm256_loadu_ps(a + i)));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(o + i, m,
                        _mm256_max_ps(_mm256_maskload_ps(b + i, m),
                                      _mm256_maskload_ps(a + i, m)));
  }
}

XP_TGT void vexp(const float* a, float* o, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, exp256(_mm256_loadu_ps(a + i)));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(o + i, m, exp256(_mm256_maskload_ps(a + i, m)));
  }
}

XP_TGT void reciprocal(const float* a, float* o, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_div_ps(one, _mm256_loadu_ps(a + i)));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    // Masked lanes load as 0; keep the division off them (0-div traps no
    // flags we care about, but the quiet-NaN noise is pointless).
    const __m256 va = _mm256_blendv_ps(one, _mm256_maskload_ps(a + i, m),
                                       _mm256_castsi256_ps(m));
    _mm256_maskstore_ps(o + i, m, _mm256_div_ps(one, va));
  }
}

XP_TGT void neg(const float* a, float* o, std::size_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(o + i, m,
                        _mm256_xor_ps(_mm256_maskload_ps(a + i, m), sign));
  }
}

XP_TGT void vabs(const float* a, float* o, std::size_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_andnot_ps(sign, _mm256_loadu_ps(a + i)));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(o + i, m,
                        _mm256_andnot_ps(sign, _mm256_maskload_ps(a + i, m)));
  }
}

XP_TGT void mul_scalar(const float* a, float s, float* o, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(o + i, m,
                        _mm256_mul_ps(_mm256_maskload_ps(a + i, m), vs));
  }
}

XP_TGT void add_scalar(const float* a, float s, float* o, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(o + i, m,
                        _mm256_add_ps(_mm256_maskload_ps(a + i, m), vs));
  }
}

XP_TGT void clamp_min(const float* a, float lo, float* o, std::size_t n) {
  const __m256 vlo = _mm256_set1_ps(lo);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_max_ps(vlo, _mm256_loadu_ps(a + i)));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(o + i, m,
                        _mm256_max_ps(vlo, _mm256_maskload_ps(a + i, m)));
  }
}

// ---- elementwise f32, in-place --------------------------------------------

XP_TGT void fill(float* a, float v, std::size_t n) {
  const __m256 vv = _mm256_set1_ps(v);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(a + i, vv);
  if (i < n) _mm256_maskstore_ps(a + i, mask8(n - i), vv);
}

XP_TGT void copy(float* dst, const float* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(dst + i, _mm256_loadu_ps(src + i));
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(dst + i, m, _mm256_maskload_ps(src + i, m));
  }
}

XP_TGT void add_(float* a, const float* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(a + i, m,
                        _mm256_add_ps(_mm256_maskload_ps(a + i, m),
                                      _mm256_maskload_ps(b + i, m)));
  }
}

// No FMA: scalar computes s·b then += with two roundings; match it exactly.
XP_TGT void axpy_(float* a, const float* b, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(vs, _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(a + i, _mm256_add_ps(_mm256_loadu_ps(a + i), t));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    const __m256 t = _mm256_mul_ps(vs, _mm256_maskload_ps(b + i, m));
    _mm256_maskstore_ps(a + i, m,
                        _mm256_add_ps(_mm256_maskload_ps(a + i, m), t));
  }
}

XP_TGT void scal_(float* a, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(a + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    _mm256_maskstore_ps(a + i, m,
                        _mm256_mul_ps(_mm256_maskload_ps(a + i, m), vs));
  }
}

XP_TGT void axpby_(float* a, float alpha, const float* b, float beta,
                   std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vb = _mm256_set1_ps(beta);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t1 = _mm256_mul_ps(va, _mm256_loadu_ps(a + i));
    const __m256 t2 = _mm256_mul_ps(vb, _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(a + i, _mm256_add_ps(t1, t2));
  }
  if (i < n) {
    const __m256i m = mask8(n - i);
    const __m256 t1 = _mm256_mul_ps(va, _mm256_maskload_ps(a + i, m));
    const __m256 t2 = _mm256_mul_ps(vb, _mm256_maskload_ps(b + i, m));
    _mm256_maskstore_ps(a + i, m, _mm256_add_ps(t1, t2));
  }
}

// ---- reductions ------------------------------------------------------------

XP_TGT double sum(const float* a, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    acc0 = _mm256_add_pd(acc0, lo_pd(v));
    acc1 = _mm256_add_pd(acc1, hi_pd(v));
  }
  double s = hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += a[i];
  return s;
}

XP_TGT double abs_sum(const float* a, std::size_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_andnot_ps(sign, _mm256_loadu_ps(a + i));
    acc0 = _mm256_add_pd(acc0, lo_pd(v));
    acc1 = _mm256_add_pd(acc1, hi_pd(v));
  }
  double s = hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += static_cast<double>(a[i] < 0.0f ? -a[i] : a[i]);
  return s;
}

XP_TGT float max_value(const float* a, std::size_t n) {
  float m = -std::numeric_limits<float>::infinity();
  __m256 acc = _mm256_set1_ps(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = _mm256_max_ps(acc, _mm256_loadu_ps(a + i));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int l = 0; l < 8; ++l) m = lanes[l] > m ? lanes[l] : m;
  for (; i < n; ++i) m = a[i] > m ? a[i] : m;
  return m;
}

XP_TGT float min_value(const float* a, std::size_t n) {
  float m = std::numeric_limits<float>::infinity();
  __m256 acc = _mm256_set1_ps(m);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = _mm256_min_ps(acc, _mm256_loadu_ps(a + i));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (int l = 0; l < 8; ++l) m = lanes[l] < m ? lanes[l] : m;
  for (; i < n; ++i) m = a[i] < m ? a[i] : m;
  return m;
}

XP_TGT double dot(const float* a, const float* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    acc0 = _mm256_fmadd_pd(lo_pd(va), lo_pd(vb), acc0);
    acc1 = _mm256_fmadd_pd(hi_pd(va), hi_pd(vb), acc1);
  }
  double s = hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

XP_TGT double diff_sq_sum(const float* a, const float* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 vb = _mm256_loadu_ps(b + i);
    const __m256d d0 = _mm256_sub_pd(lo_pd(va), lo_pd(vb));
    const __m256d d1 = _mm256_sub_pd(hi_pd(va), hi_pd(vb));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  double s = hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

XP_TGT float abs_max(const float* a, std::size_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    acc = _mm256_max_ps(acc, _mm256_andnot_ps(sign, _mm256_loadu_ps(a + i)));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float m = 0.0f;
  for (int l = 0; l < 8; ++l) m = lanes[l] > m ? lanes[l] : m;
  for (; i < n; ++i) {
    const float v = a[i] < 0.0f ? -a[i] : a[i];
    m = v > m ? v : m;
  }
  return m;
}

XP_TGT void finite_stats(const float* a, std::size_t n, std::size_t* nonfinite,
                         double* abs_sum_out) {
  const __m256i exp_mask = _mm256_set1_epi32(0x7f800000);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t bad = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(a + i);
    // Exponent all-ones ⇔ Inf or NaN.
    const __m256i bits = _mm256_castps_si256(v);
    const __m256i isbad = _mm256_cmpeq_epi32(
        _mm256_and_si256(bits, exp_mask), exp_mask);
    bad += static_cast<std::size_t>(
        __builtin_popcount(_mm256_movemask_ps(_mm256_castsi256_ps(isbad))));
    const __m256 absv = _mm256_andnot_ps(sign, v);
    const __m256 finite =
        _mm256_andnot_ps(_mm256_castsi256_ps(isbad), absv);  // bad lanes → 0
    acc0 = _mm256_add_pd(acc0, lo_pd(finite));
    acc1 = _mm256_add_pd(acc1, hi_pd(finite));
  }
  double s = hsum4(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const float v = a[i];
    if (__builtin_isfinite(v)) {
      s += static_cast<double>(v < 0.0f ? -v : v);
    } else {
      ++bad;
    }
  }
  *nonfinite = bad;
  *abs_sum_out = s;
}

XP_TGT double ddot(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc);
  }
  double s = hsum4(acc);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

// ---- WA net-lane groups ----------------------------------------------------

namespace {

// Slot access for a group of W nets: eight side by side, or one net above the
// degree cap broadcast across the register (every lane computes that net and
// lane 0 is stored). Lanes never mix, so a lane is its net's per-net loop.
template <std::size_t W>
struct WaLanes {
  XP_TGT static __m256 load(const float* p) {
    if constexpr (W == 8) return _mm256_loadu_ps(p);
    return _mm256_set1_ps(*p);
  }
  XP_TGT static void store(float* p, __m256 v) {
    if constexpr (W == 8) {
      _mm256_storeu_ps(p, v);
    } else {
      _mm_store_ss(p, _mm256_castps256_ps128(v));
    }
  }
  XP_TGT static __m256 gather(const float* pos, const std::uint32_t* cell) {
    if constexpr (W == 8) {
      return _mm256_i32gather_ps(
          pos, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell)), 4);
    }
    return _mm256_set1_ps(pos[*cell]);
  }
};

/// Eight doubles, one per lane (the widened f32 lanes lo | hi).
struct D8 {
  __m256d lo, hi;
};
XP_TGT inline D8 widen(__m256 v) { return {lo_pd(v), hi_pd(v)}; }
XP_TGT inline D8 splat(double v) {
  return {_mm256_set1_pd(v), _mm256_set1_pd(v)};
}
XP_TGT inline D8 operator+(D8 a, D8 b) {
  return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
}
XP_TGT inline D8 operator-(D8 a, D8 b) {
  return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
}
XP_TGT inline D8 operator*(D8 a, D8 b) {
  return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
}
XP_TGT inline D8 operator/(D8 a, D8 b) {
  return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
}
XP_TGT inline __m256 narrow(D8 a) {
  return _mm256_set_m128(_mm256_cvtpd_ps(a.hi), _mm256_cvtpd_ps(a.lo));
}
template <std::size_t W>
XP_TGT inline void store_lanes(double* p, D8 v) {
  if constexpr (W == 8) {
    _mm256_storeu_pd(p, v.lo);
    _mm256_storeu_pd(p + 4, v.hi);
  } else {
    _mm_store_sd(p, _mm256_castpd256_pd128(v.lo));
  }
}

// One axis of a group over gathered positions p: the stable WA sums in pin
// order (exp256 terms, their float products, double sums — the historical
// vector path), the weighted gradient into gout when non-null, and WL.
// Inlined: GCC returns a D8 from a call with the upper ymm state dirty and
// then skips the vzeroupper on the caller's way out, so every SSE
// instruction after the kernel would pay the AVX–SSE transition penalty.
template <std::size_t W>
[[gnu::always_inline]] XP_TGT inline D8 wa_axis(const float* p, std::size_t n,
                                                __m256 lo, __m256 hi,
                                                __m256 ig, __m256 w, float* s,
                                                float* u, float* gout) {
  using L = WaLanes<W>;
  const D8 zero = splat(0.0);
  D8 e_max = zero, xe_max = zero, e_min = zero, xe_min = zero;
  for (std::size_t i = 0; i < n; ++i) {
    const __m256 v = L::load(p + i * W);
    const __m256 sv = exp256(_mm256_mul_ps(_mm256_sub_ps(v, hi), ig));
    const __m256 uv = exp256(_mm256_mul_ps(_mm256_sub_ps(lo, v), ig));
    L::store(s + i * W, sv);
    L::store(u + i * W, uv);
    e_max = e_max + widen(sv);
    xe_max = xe_max + widen(_mm256_mul_ps(v, sv));
    e_min = e_min + widen(uv);
    xe_min = xe_min + widen(_mm256_mul_ps(v, uv));
  }
  const D8 wl_max = xe_max / e_max, wl_min = xe_min / e_min;
  if (gout != nullptr) {
    const D8 one = splat(1.0), igd = widen(ig);
    const D8 i_max = one / e_max, i_min = one / e_min;
    for (std::size_t i = 0; i < n; ++i) {
      const D8 v = widen(L::load(p + i * W));
      const D8 d_max = widen(L::load(s + i * W)) *
                       (one + (v - wl_max) * igd) * i_max;
      const D8 d_min = widen(L::load(u + i * W)) *
                       (one - (v - wl_min) * igd) * i_min;
      L::store(gout + i * W, _mm256_mul_ps(w, narrow(d_max - d_min)));
    }
  }
  return wl_max - wl_min;
}

template <std::size_t W>
XP_TGT void wa_lanes(const WaGroup& g) {
  using L = WaLanes<W>;
  const std::size_t n = g.degree;
  float* const px = g.scratch;
  float* const py = px + n * W;
  float* const s = py + n * W;
  float* const u = s + n * W;
  // std::min(acc, v) is min_ps(v, acc), std::max(acc, v) is max_ps(v, acc).
  __m256 min_x = _mm256_set1_ps(std::numeric_limits<float>::max());
  __m256 max_x = _mm256_set1_ps(std::numeric_limits<float>::lowest());
  __m256 min_y = min_x, max_y = max_x;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i * W;
    const __m256 vx =
        _mm256_add_ps(L::gather(g.x, g.cell + k), L::load(g.ox + k));
    const __m256 vy =
        _mm256_add_ps(L::gather(g.y, g.cell + k), L::load(g.oy + k));
    L::store(px + k, vx);
    L::store(py + k, vy);
    min_x = _mm256_min_ps(vx, min_x);
    max_x = _mm256_max_ps(vx, max_x);
    min_y = _mm256_min_ps(vy, min_y);
    max_y = _mm256_max_ps(vy, max_y);
  }
  const __m256 w = L::load(g.weight);
  if (g.hpwl != nullptr) {
    const __m256 ext = _mm256_add_ps(_mm256_sub_ps(max_x, min_x),
                                     _mm256_sub_ps(max_y, min_y));
    store_lanes<W>(g.hpwl, widen(w) * widen(ext));
  }
  if (g.wl == nullptr && g.gx == nullptr) return;
  const __m256 ig = _mm256_set1_ps(g.inv_gamma);
  const D8 wl_x = wa_axis<W>(px, n, min_x, max_x, ig, w, s, u, g.gx);
  const D8 wl_y = wa_axis<W>(py, n, min_y, max_y, ig, w, s, u, g.gy);
  if (g.wl != nullptr) store_lanes<W>(g.wl, widen(w) * (wl_x + wl_y));
}

}  // namespace

XP_TGT void wa_group(const WaGroup& g) {
  if (g.lanes == 8) {
    wa_lanes<8>(g);
  } else {
    wa_lanes<1>(g);
  }
}

// ---- density footprints ----------------------------------------------------

// The footprint kernels (util/simd_footprint.h). Every column is one
// contiguous run of rows (a Span) processed 4 rows per vector. Up to 3×3 the
// rows are lanes 0..ny−1 of the first vector, computed once per cell and
// cached; the gather then sums each column's (oh·ow)·E terms in scalar code
// in hsum4's lane order (the zero tail lanes change no sum).
struct Span {
  double ly, hy, ly0, h;  // cell bottom/top, bottom of the first row, height

  /// max(0, min(hy, ly0+(j+1)h) − max(ly, ly0+j·h)) for rows j..j+3.
  XP_TGT __m256d rows(std::size_t j) const {
    const __m256d vh = _mm256_set1_pd(h);
    const __m256d idx = _mm256_add_pd(_mm256_set1_pd(static_cast<double>(j)),
                                      _mm256_set_pd(3.0, 2.0, 1.0, 0.0));
    const __m256d bin_ly = _mm256_fmadd_pd(idx, vh, _mm256_set1_pd(ly0));
    return _mm256_max_pd(
        _mm256_setzero_pd(),
        _mm256_sub_pd(
            _mm256_min_pd(_mm256_set1_pd(hy), _mm256_add_pd(bin_ly, vh)),
            _mm256_max_pd(_mm256_set1_pd(ly), bin_ly)));
  }
};

struct Footprints {
  XP_TGT static Span span(const DensityGeom& g, const CellBox& b) {
    return {b.ly, b.hy, g.ly + b.by0 * g.bin_h, g.bin_h};
  }
  XP_TGT static __m256d rows(const DensityGeom& g, const CellBox& b,
                             double* oh) {
    const __m256d v = span(g, b).rows(0);
    // Plain (not masked) stores, so reloads of the entry forward.
    _mm_storeu_pd(oh, _mm256_castpd256_pd128(v));
    _mm_store_sd(oh + 2, _mm256_extractf128_pd(v, 1));
    return v;
  }
  /// col[j] += oh_j·(ow·scale): the cached rows, or a whole span.
  XP_TGT static void scatter(double* col, int ny, __m256d oh, double ow,
                             double scale) {
    const __m256i m = mask4(static_cast<std::size_t>(ny));
    _mm256_maskstore_pd(col, m,
                        _mm256_fmadd_pd(oh, _mm256_set1_pd(ow * scale),
                                        _mm256_maskload_pd(col, m)));
  }
  XP_TGT static void scatter(double* col, int ny, const Span& s, double ow,
                             double scale) {
    const std::size_t n = static_cast<std::size_t>(ny);
    const __m256d vws = _mm256_set1_pd(ow * scale);
    for (std::size_t j = 0; j < n; j += 4) {
      if (n - j < 4) {
        scatter(col + j, static_cast<int>(n - j), s.rows(j), ow, scale);
      } else {
        _mm256_storeu_pd(col + j, _mm256_fmadd_pd(s.rows(j), vws,
                                                  _mm256_loadu_pd(col + j)));
      }
    }
  }
  /// fx += Σ_j (oh_j·ow)·ex[j], fy likewise.
  XP_TGT static void gather(const double* ex, const double* ey, int ny,
                            const double* oh, double ow, double& fx,
                            double& fy) {
    double w = oh[0] * ow;
    double sx = w * ex[0], sy = w * ey[0];
    for (int j = 1; j < ny; ++j) {
      w = oh[j] * ow;
      sx += w * ex[j];
      sy += w * ey[j];
    }
    fx += sx;
    fy += sy;
  }
  XP_TGT static void gather(const double* ex, const double* ey, int ny,
                            const Span& s, double ow, double& fx, double& fy) {
    const std::size_t n = static_cast<std::size_t>(ny);
    const __m256d vow = _mm256_set1_pd(ow);
    __m256d ax = _mm256_setzero_pd(), ay = _mm256_setzero_pd();
    for (std::size_t j = 0; j < n; j += 4) {
      __m256d oh = s.rows(j);
      __m256d vex, vey;
      if (n - j >= 4) {
        vex = _mm256_loadu_pd(ex + j);
        vey = _mm256_loadu_pd(ey + j);
      } else {
        // Zero the dead lanes of oh; the masked-out field loads are 0 too.
        const __m256i m = mask4(n - j);
        oh = _mm256_and_pd(oh, _mm256_castsi256_pd(m));
        vex = _mm256_maskload_pd(ex + j, m);
        vey = _mm256_maskload_pd(ey + j, m);
      }
      const __m256d w = _mm256_mul_pd(oh, vow);
      ax = _mm256_fmadd_pd(w, vex, ax);
      ay = _mm256_fmadd_pd(w, vey, ay);
    }
    fx += hsum4(ax);
    fy += hsum4(ay);
  }
};

XP_TGT void density_scatter(const DensityGeom& g, const float* x,
                            const float* y, CellSet cells, double* map) {
  footprint::scatter<Footprints>(g, x, y, cells, map);
}

XP_TGT void density_gather(const DensityGeom& g, const float* x,
                           const float* y, CellSet cells, const double* ex,
                           const double* ey, float coeff, float* grad_x,
                           float* grad_y) {
  footprint::gather<Footprints>(g, x, y, cells, ex, ey, coeff, grad_x, grad_y);
}

// ---- FFT butterflies -------------------------------------------------------

namespace {

/// Complex multiply of two packed pairs: [a0·b0, a1·b1] with interleaved
/// (re,im) lanes.
XP_TGT inline __m256d cmul2(__m256d a, __m256d b) {
  const __m256d b_re = _mm256_movedup_pd(b);         // [br0,br0,br1,br1]
  const __m256d b_im = _mm256_permute_pd(b, 0xF);    // [bi0,bi0,bi1,bi1]
  const __m256d a_sw = _mm256_permute_pd(a, 0x5);    // [ai0,ar0,ai1,ar1]
  return _mm256_addsub_pd(_mm256_mul_pd(a, b_re), _mm256_mul_pd(a_sw, b_im));
}

}  // namespace

XP_TGT void fft_pass(double* d, const double* tw, std::size_t n,
                     std::size_t len, std::size_t step) {
  if (len == 2) {
    if (n < 4) {  // a single butterfly: scalar
      const double ur = d[0], ui = d[1], vr = d[2], vi = d[3];
      d[0] = ur + vr;
      d[1] = ui + vi;
      d[2] = ur - vr;
      d[3] = ui - vi;
      return;
    }
    // Pairs are adjacent: process two blocks (4 complexes) per iteration.
    for (std::size_t i = 0; i < n; i += 4) {
      const __m256d a = _mm256_loadu_pd(d + 2 * i);       // [u0, v0]
      const __m256d b = _mm256_loadu_pd(d + 2 * i + 4);   // [u1, v1]
      const __m256d u = _mm256_permute2f128_pd(a, b, 0x20);
      const __m256d v = _mm256_permute2f128_pd(a, b, 0x31);
      const __m256d s = _mm256_add_pd(u, v);
      const __m256d t = _mm256_sub_pd(u, v);
      _mm256_storeu_pd(d + 2 * i, _mm256_permute2f128_pd(s, t, 0x20));
      _mm256_storeu_pd(d + 2 * i + 4, _mm256_permute2f128_pd(s, t, 0x31));
    }
    return;
  }
  const std::size_t half = len / 2;  // ≥ 2 complexes: vector pairs
  for (std::size_t i = 0; i < n; i += len) {
    double* u_ptr = d + 2 * i;
    double* v_ptr = d + 2 * (i + half);
    for (std::size_t k = 0; k < half; k += 2) {
      __m256d w;
      if (step == 1) {
        w = _mm256_loadu_pd(tw + 2 * k);
      } else {
        w = _mm256_set_m128d(_mm_loadu_pd(tw + 2 * (k + 1) * step),
                             _mm_loadu_pd(tw + 2 * k * step));
      }
      const __m256d u = _mm256_loadu_pd(u_ptr + 2 * k);
      const __m256d v = cmul2(_mm256_loadu_pd(v_ptr + 2 * k), w);
      _mm256_storeu_pd(u_ptr + 2 * k, _mm256_add_pd(u, v));
      _mm256_storeu_pd(v_ptr + 2 * k, _mm256_sub_pd(u, v));
    }
  }
}

XP_TGT void conj_scale(double* d, std::size_t n, double scale) {
  const __m256d vs = _mm256_set_pd(-scale, scale, -scale, scale);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm256_storeu_pd(d + 2 * i, _mm256_mul_pd(_mm256_loadu_pd(d + 2 * i), vs));
  }
  if (i < n) {
    d[2 * i] = d[2 * i] * scale;
    d[2 * i + 1] = d[2 * i + 1] * -scale;
  }
}

// ---- plan-fused DCT passes (fft/plan.h) ------------------------------------
// One 128-bit lane pair carries the SAME element of both real sequences:
// lane0 = a, lane1 = b. When b == a + 1 (an adjacent-column pair) every
// load/store is a single contiguous 16-byte access; otherwise the pair
// splits into two 8-byte halves. All arithmetic is single-rounded
// mul/add/sub/addsub in the exact order of the scalar kernels (no FMA), so
// the backends stay bitwise-identical.

namespace {

XP_TGT inline __m128d swap1(__m128d v) { return _mm_shuffle_pd(v, v, 1); }

/// (x.re·w.re − x.im·w.im, x.im·w.re + x.re·w.im) for interleaved w at `w`.
XP_TGT inline __m128d cmul1(__m128d x, const double* w) {
  return _mm_addsub_pd(_mm_mul_pd(x, _mm_loaddup_pd(w)),
                       _mm_mul_pd(swap1(x), _mm_loaddup_pd(w + 1)));
}

/// (a[off], b[off]) as one vector.
XP_TGT inline __m128d load_ab(const double* a, const double* b,
                              std::size_t off, bool adj) {
  if (adj) return _mm_loadu_pd(a + off);
  return _mm_loadh_pd(_mm_load_sd(a + off), b + off);
}

/// lane0 → a[off], lane1 → b[off] (b written last, like the scalar kernels,
/// so the degenerate self-pair b == a resolves the same way).
XP_TGT inline void store_ab(double* a, double* b, std::size_t off, bool adj,
                            __m128d v) {
  if (adj) {
    _mm_storeu_pd(a + off, v);
    return;
  }
  _mm_storel_pd(a + off, v);
  _mm_storeh_pd(b + off, v);
}

/// z_k = ph_k·g_k for one inverse-head slot holding frequency k.
XP_TGT inline __m128d plan_inv_g(const double* a, const double* b,
                                 std::size_t stride, const double* ph,
                                 std::size_t k, std::size_t n, int sine,
                                 bool adj) {
  __m128d g;
  if (k == 0) {
    g = sine ? _mm_setzero_pd() : load_ab(a, b, 0, adj);
  } else {
    const __m128d vk = load_ab(a, b, k * stride, adj);
    const __m128d vm = load_ab(a, b, (n - k) * stride, adj);
    // addsub(x, y) = (x0 − y0, x1 + y1): exactly the scalar g expressions.
    g = sine ? _mm_addsub_pd(vm, swap1(vk)) : _mm_addsub_pd(vk, swap1(vm));
  }
  return cmul1(g, ph + 2 * k);
}

/// Disentangle Z_k / Z_{n−k} and rotate — both sequences' outputs at
/// frequencies k and n−k in two paired stores.
XP_TGT inline void plan_fwd_rotate(__m128d zk, __m128d znk, const double* ph,
                                   std::size_t k, std::size_t n, double* a,
                                   double* b, std::size_t stride, bool adj) {
  const __m128d arbr =
      _mm_mul_pd(_mm_add_pd(zk, znk), _mm_set1_pd(0.5));
  const __m128d aibi = _mm_mul_pd(swap1(_mm_sub_pd(zk, znk)),
                                  _mm_set_pd(-0.5, 0.5));
  const double* p1 = ph + 2 * k;
  const double* p2 = ph + 2 * (n - k);
  store_ab(a, b, k * stride, adj,
           _mm_sub_pd(_mm_mul_pd(arbr, _mm_loaddup_pd(p1)),
                      _mm_mul_pd(aibi, _mm_loaddup_pd(p1 + 1))));
  store_ab(a, b, (n - k) * stride, adj,
           _mm_add_pd(_mm_mul_pd(arbr, _mm_loaddup_pd(p2)),
                      _mm_mul_pd(aibi, _mm_loaddup_pd(p2 + 1))));
}

}  // namespace

XP_TGT void plan_fwd_head(const double* a, const double* b, std::size_t stride,
                          const std::uint32_t* perm, double* z,
                          std::size_t n) {
  const bool adj = b == a + 1;
  if (n == 2) {
    _mm_storeu_pd(z, load_ab(a, b, perm[0] * stride, adj));
    _mm_storeu_pd(z + 2, load_ab(a, b, perm[1] * stride, adj));
    return;
  }
  for (std::size_t j = 0; j < n; j += 2) {
    const __m128d u = load_ab(a, b, perm[j] * stride, adj);
    const __m128d v = load_ab(a, b, perm[j + 1] * stride, adj);
    _mm_storeu_pd(z + 2 * j, _mm_add_pd(u, v));
    _mm_storeu_pd(z + 2 * j + 2, _mm_sub_pd(u, v));
  }
}

XP_TGT void plan_inv_head(const double* a, const double* b,
                          std::size_t stride, const std::uint32_t* brev,
                          const double* ph, double* z, std::size_t n,
                          int sine) {
  const bool adj = b == a + 1;
  if (n == 2) {
    _mm_storeu_pd(z, plan_inv_g(a, b, stride, ph, brev[0], n, sine, adj));
    _mm_storeu_pd(z + 2, plan_inv_g(a, b, stride, ph, brev[1], n, sine, adj));
    return;
  }
  for (std::size_t j = 0; j < n; j += 2) {
    const __m128d u = plan_inv_g(a, b, stride, ph, brev[j], n, sine, adj);
    const __m128d v = plan_inv_g(a, b, stride, ph, brev[j + 1], n, sine, adj);
    _mm_storeu_pd(z + 2 * j, _mm_add_pd(u, v));
    _mm_storeu_pd(z + 2 * j + 2, _mm_sub_pd(u, v));
  }
}

XP_TGT void plan_fwd_tail(const double* z, const double* tw, const double* ph,
                          double* a, double* b, std::size_t stride,
                          std::size_t n) {
  const bool adj = b == a + 1;
  const std::size_t h = n / 2;
  {
    const __m128d u = _mm_loadu_pd(z);
    const __m128d v = cmul1(_mm_loadu_pd(z + 2 * h), tw);
    store_ab(a, b, 0, adj, _mm_add_pd(u, v));
    store_ab(a, b, h * stride, adj,
             _mm_mul_pd(_mm_sub_pd(u, v), _mm_loaddup_pd(ph + 2 * h)));
  }
  for (std::size_t k = 1; 4 * k <= n; ++k) {
    const std::size_t jB = h - k;
    const __m128d uA = _mm_loadu_pd(z + 2 * k);
    const __m128d vA = cmul1(_mm_loadu_pd(z + 2 * (k + h)), tw + 2 * k);
    const __m128d sA = _mm_add_pd(uA, vA);
    const __m128d dA = _mm_sub_pd(uA, vA);
    if (k == jB) {
      plan_fwd_rotate(sA, dA, ph, k, n, a, b, stride, adj);
      break;
    }
    const __m128d uB = _mm_loadu_pd(z + 2 * jB);
    const __m128d vB = cmul1(_mm_loadu_pd(z + 2 * (jB + h)), tw + 2 * jB);
    const __m128d sB = _mm_add_pd(uB, vB);
    const __m128d dB = _mm_sub_pd(uB, vB);
    plan_fwd_rotate(sA, dB, ph, k, n, a, b, stride, adj);
    plan_fwd_rotate(sB, dA, ph, jB, n, a, b, stride, adj);
  }
}

XP_TGT void plan_inv_tail(const double* z, const double* tw, double* a,
                          double* b, std::size_t stride, std::size_t n,
                          int sine) {
  const bool adj = b == a + 1;
  const std::size_t h = n / 2;
  const double e = 1.0 / static_cast<double>(n);
  const __m128d ev = _mm_set1_pd(e);
  const __m128d ov = _mm_set1_pd(sine ? -e : e);
  if (n == 2) {
    const __m128d u = _mm_loadu_pd(z);
    const __m128d v = cmul1(_mm_loadu_pd(z + 2), tw);
    store_ab(a, b, 0, adj, _mm_mul_pd(_mm_add_pd(u, v), ev));
    store_ab(a, b, stride, adj, _mm_mul_pd(_mm_sub_pd(u, v), ov));
    return;
  }
  for (std::size_t i = 0; 4 * i < n; ++i) {
    const std::size_t jB = h - 1 - i;
    const __m128d uA = _mm_loadu_pd(z + 2 * i);
    const __m128d vA = cmul1(_mm_loadu_pd(z + 2 * (i + h)), tw + 2 * i);
    const __m128d uB = _mm_loadu_pd(z + 2 * jB);
    const __m128d vB = cmul1(_mm_loadu_pd(z + 2 * (jB + h)), tw + 2 * jB);
    store_ab(a, b, (2 * i) * stride, adj,
             _mm_mul_pd(_mm_add_pd(uA, vA), ev));
    store_ab(a, b, (2 * i + 1) * stride, adj,
             _mm_mul_pd(_mm_sub_pd(uB, vB), ov));
    store_ab(a, b, (n - 2 - 2 * i) * stride, adj,
             _mm_mul_pd(_mm_add_pd(uB, vB), ev));
    store_ab(a, b, (n - 1 - 2 * i) * stride, adj,
             _mm_mul_pd(_mm_sub_pd(uA, vA), ov));
  }
}

// ---- fused optimizer updates -----------------------------------------------

XP_TGT void nesterov_update(float* v, float* v_prev, float* g_prev, float* u,
                            const float* g, const float* lo, const float* hi,
                            std::size_t n, double eta, float coef) {
  const __m256d veta = _mm256_set1_pd(eta);
  const __m256 vcoef = _mm256_set1_ps(coef);
  for (std::size_t c = 0; c < n; c += 8) {
    const std::size_t rem = n - c;
    const bool full = rem >= 8;
    const __m256i m = full ? _mm256_setzero_si256() : mask8(rem);
    const __m256 vv = full ? _mm256_loadu_ps(v + c)
                           : _mm256_maskload_ps(v + c, m);
    const __m256 vg = full ? _mm256_loadu_ps(g + c)
                           : _mm256_maskload_ps(g + c, m);
    const __m256 vlo = full ? _mm256_loadu_ps(lo + c)
                            : _mm256_maskload_ps(lo + c, m);
    const __m256 vhi = full ? _mm256_loadu_ps(hi + c)
                            : _mm256_maskload_ps(hi + c, m);
    const __m256 vu = full ? _mm256_loadu_ps(u + c)
                           : _mm256_maskload_ps(u + c, m);
    // v − η·g in double (matches the scalar expression exactly; cvtpd_ps
    // rounds to nearest like the scalar float cast).
    const __m256d s0 =
        _mm256_sub_pd(lo_pd(vv), _mm256_mul_pd(veta, lo_pd(vg)));
    const __m256d s1 =
        _mm256_sub_pd(hi_pd(vv), _mm256_mul_pd(veta, hi_pd(vg)));
    const __m256 u_raw =
        _mm256_set_m128(_mm256_cvtpd_ps(s1), _mm256_cvtpd_ps(s0));
    const __m256 u_new =
        _mm256_min_ps(_mm256_max_ps(u_raw, vlo), vhi);
    const __m256 ext = _mm256_add_ps(
        u_new, _mm256_mul_ps(vcoef, _mm256_sub_ps(u_new, vu)));
    const __m256 v_new = _mm256_min_ps(_mm256_max_ps(ext, vlo), vhi);
    if (full) {
      _mm256_storeu_ps(v_prev + c, vv);
      _mm256_storeu_ps(g_prev + c, vg);
      _mm256_storeu_ps(v + c, v_new);
      _mm256_storeu_ps(u + c, u_new);
    } else {
      _mm256_maskstore_ps(v_prev + c, m, vv);
      _mm256_maskstore_ps(g_prev + c, m, vg);
      _mm256_maskstore_ps(v + c, m, v_new);
      _mm256_maskstore_ps(u + c, m, u_new);
    }
  }
}

XP_TGT void precond_apply(float* gx, float* gy, const float* nets,
                          const float* area, float lambda, std::size_t n) {
  const __m256 vl = _mm256_set1_ps(lambda);
  const __m256 one = _mm256_set1_ps(1.0f);
  for (std::size_t c = 0; c < n; c += 8) {
    const std::size_t rem = n - c;
    const bool full = rem >= 8;
    const __m256i m = full ? _mm256_setzero_si256() : mask8(rem);
    const __m256 vn = full ? _mm256_loadu_ps(nets + c)
                           : _mm256_maskload_ps(nets + c, m);
    const __m256 va = full ? _mm256_loadu_ps(area + c)
                           : _mm256_maskload_ps(area + c, m);
    // max(1, nets + λ·area); mul+add (not FMA) to match scalar bitwise.
    __m256 p = _mm256_add_ps(vn, _mm256_mul_ps(vl, va));
    p = _mm256_max_ps(p, one);
    if (full) {
      _mm256_storeu_ps(gx + c, _mm256_div_ps(_mm256_loadu_ps(gx + c), p));
      _mm256_storeu_ps(gy + c, _mm256_div_ps(_mm256_loadu_ps(gy + c), p));
    } else {
      _mm256_maskstore_ps(gx + c, m,
                          _mm256_div_ps(_mm256_maskload_ps(gx + c, m), p));
      _mm256_maskstore_ps(gy + c, m,
                          _mm256_div_ps(_mm256_maskload_ps(gy + c, m), p));
    }
  }
}

}  // namespace avx2

const Kernels* avx2_kernels_or_null() {
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const Kernels k = {
      .isa = Isa::kAvx2,
      .name = "avx2",
      .add = avx2::add,
      .sub = avx2::sub,
      .mul = avx2::mul,
      .maximum = avx2::maximum,
      .vexp = avx2::vexp,
      .reciprocal = avx2::reciprocal,
      .neg = avx2::neg,
      .vabs = avx2::vabs,
      .mul_scalar = avx2::mul_scalar,
      .add_scalar = avx2::add_scalar,
      .clamp_min = avx2::clamp_min,
      .fill = avx2::fill,
      .copy = avx2::copy,
      .add_ = avx2::add_,
      .axpy_ = avx2::axpy_,
      .scal_ = avx2::scal_,
      .axpby_ = avx2::axpby_,
      .sum = avx2::sum,
      .abs_sum = avx2::abs_sum,
      .max_value = avx2::max_value,
      .min_value = avx2::min_value,
      .dot = avx2::dot,
      .diff_sq_sum = avx2::diff_sq_sum,
      .abs_max = avx2::abs_max,
      .finite_stats = avx2::finite_stats,
      .ddot = avx2::ddot,
      .wa_group = avx2::wa_group,
      .density_scatter = avx2::density_scatter,
      .density_gather = avx2::density_gather,
      .fft_pass = avx2::fft_pass,
      .conj_scale = avx2::conj_scale,
      .plan_fwd_head = avx2::plan_fwd_head,
      .plan_inv_head = avx2::plan_inv_head,
      .plan_fwd_tail = avx2::plan_fwd_tail,
      .plan_inv_tail = avx2::plan_inv_tail,
      .nesterov_update = avx2::nesterov_update,
      .precond_apply = avx2::precond_apply,
  };
  return &k;
}

}  // namespace xplace::simd

#else  // non-x86 targets: no AVX2 backend

namespace xplace::simd {
const Kernels* avx2_kernels_or_null() { return nullptr; }
}  // namespace xplace::simd

#endif
