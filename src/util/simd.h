// Fixed-width SIMD kernel layer with runtime CPU-feature dispatch.
//
// The paper's operators owe their speed to data-parallel GPU kernels; on this
// CPU substrate the analogous axis (after PR 3's thread pool) is vector
// lanes. Every hot inner loop — elementwise tensor ops, the fused WA
// wirelength exp-sums, density footprint scatter/gather, FFT butterflies, and
// the Nesterov update — routes through the function-pointer table below
// (ggml-style), with two backends:
//
//   * scalar — plain loops, bitwise-identical to the historical kernels, and
//   * avx2   — AVX2+FMA (8×f32 / 4×f64 lanes), selected at runtime iff the
//              CPU supports it.
//
// Selection (first call wins, then cached):
//   1. an explicit select() call (the `--simd` CLI flag, tests),
//   2. the XPLACE_SIMD env var: off|scalar → scalar, avx2 → AVX2 (falls back
//      to scalar with a warning if unsupported), auto/unset → best available.
//
// Determinism contract (DESIGN.md §10):
//   * scalar backend: bitwise-identical results to the pre-SIMD kernels,
//   * avx2 backend: bitwise run-to-run deterministic for a fixed ISA (lane
//     reductions fold in a fixed order); elementwise float kernels are even
//     bitwise-equal to scalar (no FMA contraction in them — verified by
//     tests/test_simd.cpp), while exp-based and reduction kernels agree
//     within documented tolerances (vectorized exp: ≤2 ULP of expf on the WA
//     input range (-87.3, 0], +0 at and below its lower clamp).
//
// The table composes under the ThreadPool: pooled kernels partition work
// across workers and each chunk runs vector lanes internally.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace xplace::telemetry {
class Registry;
}

namespace xplace::simd {

/// Instruction-set backends. Numeric values are stable (published as the
/// `exec.simd.isa` gauge): 0 = scalar, 2 = AVX2+FMA.
enum class Isa : int { kScalar = 0, kAvx2 = 2 };

/// One group of the net-lane WA layout (ops/netlist_view.h, DESIGN.md §18):
/// `lanes` nets (8, or 1 for a net above the degree cap) of `degree` pins
/// each; pin i of lane l sits at slot i·lanes + l of cell/ox/oy/gx/gy.
struct WaGroup {
  const float *x, *y;         ///< cell centres
  const std::uint32_t* cell;  ///< slot → cell
  const float *ox, *oy;       ///< slot → pin offset from the cell centre
  const float* weight;        ///< lane → net weight
  std::size_t degree, lanes;
  float inv_gamma;
  float* scratch;             ///< 4·degree·lanes floats
  double *hpwl, *wl;          ///< lane → w·HPWL, w·(WL_x + WL_y)
  float *gx, *gy;             ///< slot → weighted WA gradient
};

/// A cell's cached density footprint (ops/density.h): first bin bx0·m + by0,
/// nx×ny ≤ 3×3, and the column/row overlaps as its backend computes them,
/// tagged with the float position it was built from (nx == 0: never built).
struct alignas(64) Footprint {
  double ow[3], oh[3];
  float x, y;
  std::uint32_t bin0;
  std::uint8_t nx, ny;

  bool matches(float px, float py) const {
    using B = std::uint32_t;
    return nx != 0 && std::bit_cast<B>(x) == std::bit_cast<B>(px) &&
           std::bit_cast<B>(y) == std::bit_cast<B>(py);
  }
};
static_assert(sizeof(Footprint) == 64);

/// A cell's (smoothed) footprint rectangle and its clamped bin range.
struct CellBox {
  double lx, hx, ly, hy;
  int bx0, bx1, by0, by1;

  bool exceeds_3x3() const { return bx1 - bx0 > 2 || by1 - by0 > 2; }
};

/// A density grid as the footprint kernels see it: the bin geometry, the
/// per-cell smoothed half-sizes and density scales (by cell id), and the
/// footprint table. Fixed cells [nm, np) have no table entry.
struct DensityGeom {
  double lx, ly, bin_w, bin_h, inv_bin_w, inv_bin_h, inv_bin_area;
  int m;
  const float *half_w, *half_h, *scale;
  Footprint* table;
  std::size_t nm, np;

  Footprint* entry(std::size_t c) const {
    if (c < nm) return table + c;
    return c < np ? nullptr : table + (c - (np - nm));
  }
  [[gnu::always_inline]] CellBox box(std::size_t c, const float* x,
                                     const float* y) const {
    const double l = x[c] - half_w[c], r = x[c] + half_w[c];
    const double d = y[c] - half_h[c], u = y[c] + half_h[c];
    const auto bin = [this](double v, double inv) {
      return std::clamp(static_cast<int>(std::floor(v * inv)), 0, m - 1);
    };
    return {l, r, d, u, bin(l - lx, inv_bin_w), bin(r - lx, inv_bin_w),
            bin(d - ly, inv_bin_h), bin(u - ly, inv_bin_h)};
  }
  /// x-overlap of box `b` with bin column bx (≤ 0 when they do not meet).
  double col_overlap(const CellBox& b, int bx) const {
    const double bin_lx = lx + bx * bin_w;
    return std::min(b.hx, bin_lx + bin_w) - std::max(b.lx, bin_lx);
  }
};

/// The cells one density kernel visits: ids[i], or first + i if ids is null.
struct CellSet {
  const std::uint32_t* ids;
  std::size_t first, count;

  std::size_t operator[](std::size_t i) const {
    return ids ? ids[i] : first + i;
  }
  CellSet slice(std::size_t lo, std::size_t hi) const {
    return {ids ? ids + lo : nullptr, first + lo, hi - lo};
  }
};

/// One backend: a flat function-pointer table. All pointers are always
/// non-null. `n` is an element count; float buffers need no alignment
/// (kernels use unaligned loads and masked/scalar tails).
struct Kernels {
  Isa isa;
  const char* name;

  // ---- elementwise f32, out-of-place ----
  void (*add)(const float* a, const float* b, float* o, std::size_t n);
  void (*sub)(const float* a, const float* b, float* o, std::size_t n);
  void (*mul)(const float* a, const float* b, float* o, std::size_t n);
  void (*maximum)(const float* a, const float* b, float* o, std::size_t n);
  void (*vexp)(const float* a, float* o, std::size_t n);
  void (*reciprocal)(const float* a, float* o, std::size_t n);
  void (*neg)(const float* a, float* o, std::size_t n);
  void (*vabs)(const float* a, float* o, std::size_t n);
  void (*mul_scalar)(const float* a, float s, float* o, std::size_t n);
  void (*add_scalar)(const float* a, float s, float* o, std::size_t n);
  void (*clamp_min)(const float* a, float lo, float* o, std::size_t n);

  // ---- elementwise f32, in-place ----
  void (*fill)(float* a, float v, std::size_t n);
  void (*copy)(float* dst, const float* src, std::size_t n);
  void (*add_)(float* a, const float* b, std::size_t n);
  void (*axpy_)(float* a, const float* b, float s, std::size_t n);  // a += s·b
  void (*scal_)(float* a, float s, std::size_t n);                  // a *= s
  void (*axpby_)(float* a, float alpha, const float* b, float beta,
                 std::size_t n);  // a = α·a + β·b

  // ---- reductions (double accumulators, fixed lane-fold order) ----
  double (*sum)(const float* a, std::size_t n);
  double (*abs_sum)(const float* a, std::size_t n);
  float (*max_value)(const float* a, std::size_t n);
  float (*min_value)(const float* a, std::size_t n);
  double (*dot)(const float* a, const float* b, std::size_t n);
  /// Σ(a-b)² in double — the Lipschitz ‖Δv‖/‖Δg‖ building block.
  double (*diff_sq_sum)(const float* a, const float* b, std::size_t n);
  /// max(|a_i|) — the Nesterov max-step clamp building block.
  float (*abs_max)(const float* a, std::size_t n);
  /// Fused finite scan of one buffer: counts NaN/Inf entries and sums |v| of
  /// the finite ones.
  void (*finite_stats)(const float* a, std::size_t n, std::size_t* nonfinite,
                       double* abs_sum_out);
  /// Σ a_i·b_i over f64 buffers (double accumulator, fixed lane-fold order) —
  /// the Poisson potential-energy reduce.
  double (*ddot)(const double* a, const double* b, std::size_t n);

  // ---- WA wirelength (one net-lane group) ----
  /// Per lane, pins in order: the extents, hpwl[l], wl[l] and the per-slot
  /// stable-form gradient (ops/wirelength.h), each skipped when its output
  /// is null; no exp runs when wl and gx are both null. Every lane is
  /// bitwise this backend's per-net loop: scalar sums std::exp terms and
  /// their double products, AVX2 sums exp256 terms and their float products.
  void (*wa_group)(const WaGroup& g);

  // ---- density footprints (f64 maps, map[bx·m + by]) ----
  /// map[b] += overlap(c, b)·scale[c]/A_b per cell, storing its footprint.
  void (*density_scatter)(const DensityGeom& g, const float* x, const float* y,
                          CellSet cells, double* map);
  /// grad[c] += coeff·(scale[c]/A_b)·Σ_b overlap(c, b)·E_b per axis, from the
  /// cell's stored footprint when its position tag matches.
  void (*density_gather)(const DensityGeom& g, const float* x, const float* y,
                         CellSet cells, const double* ex, const double* ey,
                         float coeff, float* grad_x, float* grad_y);

  // ---- FFT butterflies (interleaved complex f64) ----
  /// One radix-2 stage of length `len` over `n` complex values: for every
  /// block i and k < len/2,
  ///   v = d[i+k+len/2]·tw[k·step];  d[i+k] += v;  d[i+k+len/2] = u − v.
  /// `d` and `tw` are interleaved (re,im) buffers.
  void (*fft_pass)(double* d, const double* tw, std::size_t n, std::size_t len,
                   std::size_t step);
  /// d[i] = conj(d[i])·scale over n complex values (the ifft wrapper).
  void (*conj_scale)(double* d, std::size_t n, double scale);

  // ---- DCT glue (Makhoul reorder/twiddle; v, ph interleaved complex) ----
  /// v[i] = (x[2i], 0), v[n−1−i] = (x[2i+1], 0) for i < n/2 (pre-pack).
  void (*dct_pack)(const double* x, double* v, std::size_t n);
  /// x[k] = Re(v[k]·ph[k]) for k < n (post-rotate).
  void (*dct_rotate)(const double* v, const double* ph, double* x,
                     std::size_t n);
  /// v[k] = conj(ph[k])·(x[k], −x[n−k]) for 1 ≤ k < n (idct pre-twiddle;
  /// the caller seeds v[0]).
  void (*idct_pretwiddle)(const double* x, const double* ph, double* v,
                          std::size_t n);
  /// x[2i] = Re(v[i]), x[2i+1] = Re(v[n−1−i]) for i < n/2 (idct unpack).
  void (*idct_unpack)(const double* v, double* x, std::size_t n);

  // ---- plan-fused DCT passes (fft/plan.h; two real sequences per complex
  //      FFT, sequences a and b read/written at element `stride`) ----
  /// Forward head: z[j] = (a[perm[j]·stride], b[perm[j]·stride]) — the
  /// Makhoul pack composed with the bit-reversal — fused with the
  /// twiddle-free first butterfly over adjacent slot pairs when n ≥ 4.
  void (*plan_fwd_head)(const double* a, const double* b, std::size_t stride,
                        const std::uint32_t* perm, double* z, std::size_t n);
  /// Inverse head: z[j] = ph_k·g_k at k = brev[j], where g packs the two
  /// spectra (conjugate-folded so the pipeline runs a FORWARD fft):
  ///   idct  (sine=0): g = (a_k − b_{n−k},  a_{n−k} + b_k), g_0 = (a_0, b_0)
  ///   idxst (sine=1): g = (a_{n−k} − b_k,  a_k + b_{n−k}), g_0 = (0, 0)
  /// fused with the first butterfly when n ≥ 4.
  void (*plan_inv_head)(const double* a, const double* b, std::size_t stride,
                        const std::uint32_t* brev, const double* ph, double* z,
                        std::size_t n, int sine);
  /// Forward tail: last butterfly (stage len = n, twiddles `tw`) fused with
  /// the real/imag spectrum disentangle and the Makhoul rotate by `ph`,
  /// storing both DCT outputs directly at their strided positions.
  void (*plan_fwd_tail)(const double* z, const double* tw, const double* ph,
                        double* a, double* b, std::size_t stride,
                        std::size_t n);
  /// Inverse tail: last butterfly fused with the 1/n scale and the Makhoul
  /// de-interleave; `sine` negates odd outputs (the idxst sign pattern).
  void (*plan_inv_tail)(const double* z, const double* tw, double* a,
                        double* b, std::size_t stride, std::size_t n,
                        int sine);

  // ---- fused optimizer updates ----
  /// One axis of the Nesterov step (history shift + clamped extrapolation):
  ///   v_prev=v; g_prev=g; u⁺=clamp(v−η·g); v=clamp(u⁺+coef·(u⁺−u)); u=u⁺.
  void (*nesterov_update)(float* v, float* v_prev, float* g_prev, float* u,
                          const float* g, const float* lo, const float* hi,
                          std::size_t n, double eta, float coef);
  /// gx[i] /= p, gy[i] /= p with p = max(1, nets[i] + λ·area[i]).
  void (*precond_apply)(float* gx, float* gy, const float* nets,
                        const float* area, float lambda, std::size_t n);
};

/// The active backend table. First call resolves the env policy; afterwards a
/// relaxed atomic load. Hoist `const Kernels& k = simd::active();` outside
/// element loops (the dispatch-overhead contract is per kernel launch, not
/// per element — see bench_simd_overhead).
const Kernels& active();

/// Shorthand for active().isa.
Isa isa();

/// "scalar" or "avx2".
const char* isa_name(Isa isa);

/// True iff this CPU (and build) can run the AVX2+FMA backend.
bool cpu_has_avx2();

/// Force a backend. Accepts "off"/"scalar", "avx2", "auto"/"" (best
/// available). Returns false (and leaves the selection unchanged) for an
/// unknown name or an ISA the CPU lacks.
bool select(const char* name);
void select(Isa isa);

/// Resolve a policy string the way the XPLACE_SIMD env var is resolved
/// (nullptr/"auto" → best available; unsupported avx2 → scalar). Exposed for
/// tests.
Isa resolve_policy(const char* value);

/// The individual backend tables (avx2_kernels() aborts if !cpu_has_avx2();
/// parity tests compare the two directly without flipping the selection).
const Kernels& scalar_kernels();
const Kernels& avx2_kernels();

/// Publishes the selected backend as the `exec.simd.isa` gauge (0 = scalar,
/// 2 = AVX2).
void publish(telemetry::Registry& registry);

}  // namespace xplace::simd
