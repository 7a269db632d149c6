// SIMD kernel-layer parity tests (util/simd.h).
//
// Contracts verified here (DESIGN.md §10):
//   * backend selection: env policy resolution, explicit select(), fallback,
//   * bitwise scalar-vs-AVX2 equality for the elementwise/min-max/axpy
//     kernels, swept over n = 1 .. 2·lanes+3 and unaligned base pointers
//     (exercises masked heads, full vectors, and remainder tails),
//   * vectorized exp within 2 ULP of std::expf on the WA range (-87.3, 0],
//     and +0 (never subnormal) at and below its lower clamp,
//   * reductions and WA/density/FFT/optimizer kernels within documented
//     tolerances of the scalar backend (double accumulators); each
//     backend's WA group bitwise equal to its own per-net loop,
//   * fused optimizer kernels bitwise-equal to scalar,
//   * GP end-to-end: AVX2 matches scalar within 1e-4 relative after 20
//     iterations and is bitwise run-to-run deterministic at fixed ISA.
//
// Every AVX2 case skips (not fails) on hardware without AVX2+FMA.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/placer.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "fft/reference.h"
#include "io/generator.h"
#include "ops/netlist_view.h"
#include "telemetry/metrics.h"
#include "util/rng.h"
#include "util/simd.h"

namespace xplace {
namespace {

constexpr std::size_t kMaxN = 19;  // 2·8 lanes + 3
constexpr std::size_t kPad = 8;    // head room for unaligned base offsets

bool have_avx2() { return simd::cpu_has_avx2(); }

#define XP_REQUIRE_AVX2() \
  if (!have_avx2()) GTEST_SKIP() << "CPU lacks AVX2+FMA"

std::vector<float> random_floats(std::size_t n, std::uint64_t seed,
                                 float lo = -8.0f, float hi = 8.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = lo + (hi - lo) * static_cast<float>(rng.uniform());
  return v;
}

/// ULP distance between two finite same-sign floats.
std::int64_t ulp_diff(float a, float b) {
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, 4);
  std::memcpy(&ib, &b, 4);
  // Map to a monotonic integer line (two's-complement trick).
  const std::int64_t ma = ia < 0 ? std::int64_t{INT32_MIN} - ia : ia;
  const std::int64_t mb = ib < 0 ? std::int64_t{INT32_MIN} - ib : ib;
  return ma > mb ? ma - mb : mb - ma;
}

// ---------------- selection & dispatch ----------------

TEST(SimdSelect, PolicyResolution) {
  EXPECT_EQ(simd::resolve_policy("off"), simd::Isa::kScalar);
  EXPECT_EQ(simd::resolve_policy("scalar"), simd::Isa::kScalar);
  const simd::Isa best =
      have_avx2() ? simd::Isa::kAvx2 : simd::Isa::kScalar;
  EXPECT_EQ(simd::resolve_policy(nullptr), best);
  EXPECT_EQ(simd::resolve_policy(""), best);
  EXPECT_EQ(simd::resolve_policy("auto"), best);
  EXPECT_EQ(simd::resolve_policy("avx2"), best);     // falls back if absent
  EXPECT_EQ(simd::resolve_policy("bogus"), best);    // warn + auto
}

TEST(SimdSelect, ExplicitSelectWinsAndReports) {
  EXPECT_TRUE(simd::select("scalar"));
  EXPECT_EQ(simd::isa(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::active().name, "scalar");
  EXPECT_FALSE(simd::select("bogus"));
  EXPECT_EQ(simd::isa(), simd::Isa::kScalar);  // unchanged on failure
  if (have_avx2()) {
    EXPECT_TRUE(simd::select("avx2"));
    EXPECT_EQ(simd::isa(), simd::Isa::kAvx2);
    EXPECT_STREQ(simd::active().name, "avx2");
  } else {
    EXPECT_FALSE(simd::select("avx2"));
  }
  EXPECT_TRUE(simd::select("auto"));
}

TEST(SimdSelect, PublishesIsaGauge) {
  simd::select(simd::Isa::kScalar);
  telemetry::Registry reg;
  simd::publish(reg);
  EXPECT_EQ(reg.gauge("exec.simd.isa").value(), 0.0);
  if (have_avx2()) {
    simd::select(simd::Isa::kAvx2);
    simd::publish(reg);
    EXPECT_EQ(reg.gauge("exec.simd.isa").value(), 2.0);
  }
  simd::select("auto");
}

// ---------------- elementwise bitwise parity ----------------

/// Runs `fn(kernels, in_ptrs..., out_ptr, n)` for both backends over every
/// (size, base-offset) combination and requires bitwise-equal outputs.
template <typename Fn>
void sweep_bitwise(std::uint64_t seed, Fn&& fn) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ks = simd::scalar_kernels();
  const simd::Kernels& ka = simd::avx2_kernels();
  for (std::size_t n = 1; n <= kMaxN; ++n) {
    for (std::size_t off = 0; off < 4; ++off) {
      std::vector<float> a = random_floats(n + kPad, seed ^ (n * 131 + off));
      std::vector<float> b =
          random_floats(n + kPad, seed ^ (n * 257 + off + 1));
      std::vector<float> out_s(n + kPad, 0.0f), out_a(n + kPad, 0.0f);
      fn(ks, a.data() + off, b.data() + off, out_s.data() + off, n);
      fn(ka, a.data() + off, b.data() + off, out_a.data() + off, n);
      ASSERT_EQ(0, std::memcmp(out_s.data(), out_a.data(),
                               (n + kPad) * sizeof(float)))
          << "n=" << n << " off=" << off;
    }
  }
}

TEST(SimdBitwise, Add) {
  sweep_bitwise(1, [](const simd::Kernels& k, const float* a, const float* b,
                      float* o, std::size_t n) { k.add(a, b, o, n); });
}
TEST(SimdBitwise, Sub) {
  sweep_bitwise(2, [](const simd::Kernels& k, const float* a, const float* b,
                      float* o, std::size_t n) { k.sub(a, b, o, n); });
}
TEST(SimdBitwise, Mul) {
  sweep_bitwise(3, [](const simd::Kernels& k, const float* a, const float* b,
                      float* o, std::size_t n) { k.mul(a, b, o, n); });
}
TEST(SimdBitwise, Maximum) {
  sweep_bitwise(4, [](const simd::Kernels& k, const float* a, const float* b,
                      float* o, std::size_t n) { k.maximum(a, b, o, n); });
}
TEST(SimdBitwise, Reciprocal) {
  sweep_bitwise(5, [](const simd::Kernels& k, const float* a, const float*,
                      float* o, std::size_t n) { k.reciprocal(a, o, n); });
}
TEST(SimdBitwise, NegAbs) {
  sweep_bitwise(6, [](const simd::Kernels& k, const float* a, const float*,
                      float* o, std::size_t n) { k.neg(a, o, n); });
  sweep_bitwise(7, [](const simd::Kernels& k, const float* a, const float*,
                      float* o, std::size_t n) { k.vabs(a, o, n); });
}
TEST(SimdBitwise, ScalarOperandOps) {
  sweep_bitwise(8, [](const simd::Kernels& k, const float* a, const float*,
                      float* o, std::size_t n) { k.mul_scalar(a, 1.7f, o, n); });
  sweep_bitwise(9, [](const simd::Kernels& k, const float* a, const float*,
                      float* o, std::size_t n) { k.add_scalar(a, -0.3f, o, n); });
  sweep_bitwise(10, [](const simd::Kernels& k, const float* a, const float*,
                       float* o, std::size_t n) { k.clamp_min(a, 0.25f, o, n); });
}
TEST(SimdBitwise, FillCopy) {
  sweep_bitwise(11, [](const simd::Kernels& k, const float*, const float*,
                       float* o, std::size_t n) { k.fill(o, 2.5f, n); });
  sweep_bitwise(12, [](const simd::Kernels& k, const float* a, const float*,
                       float* o, std::size_t n) { k.copy(o, a, n); });
}
TEST(SimdBitwise, InPlaceAxpyFamily) {
  sweep_bitwise(13, [](const simd::Kernels& k, const float* a, const float* b,
                       float* o, std::size_t n) {
    k.copy(o, a, n);
    k.add_(o, b, n);
  });
  sweep_bitwise(14, [](const simd::Kernels& k, const float* a, const float* b,
                       float* o, std::size_t n) {
    k.copy(o, a, n);
    k.axpy_(o, b, 0.37f, n);
  });
  sweep_bitwise(15, [](const simd::Kernels& k, const float* a, const float*,
                       float* o, std::size_t n) {
    k.copy(o, a, n);
    k.scal_(o, -1.1f, n);
  });
  sweep_bitwise(16, [](const simd::Kernels& k, const float* a, const float* b,
                       float* o, std::size_t n) {
    k.copy(o, a, n);
    k.axpby_(o, 0.9f, b, 0.2f, n);
  });
}
TEST(SimdBitwise, FusedOptimizerKernels) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ks = simd::scalar_kernels();
  const simd::Kernels& ka = simd::avx2_kernels();
  for (std::size_t n = 1; n <= kMaxN; ++n) {
    // precond_apply
    std::vector<float> nets = random_floats(n, 100 + n, 0.0f, 12.0f);
    std::vector<float> area = random_floats(n, 200 + n, 0.1f, 30.0f);
    std::vector<float> gx = random_floats(n, 300 + n);
    std::vector<float> gy = random_floats(n, 400 + n);
    std::vector<float> gx2 = gx, gy2 = gy;
    ks.precond_apply(gx.data(), gy.data(), nets.data(), area.data(), 0.8f, n);
    ka.precond_apply(gx2.data(), gy2.data(), nets.data(), area.data(), 0.8f,
                     n);
    ASSERT_EQ(0, std::memcmp(gx.data(), gx2.data(), n * 4)) << n;
    ASSERT_EQ(0, std::memcmp(gy.data(), gy2.data(), n * 4)) << n;

    // nesterov_update
    std::vector<float> v = random_floats(n, 500 + n, 0.0f, 100.0f);
    std::vector<float> g = random_floats(n, 600 + n);
    std::vector<float> u = random_floats(n, 700 + n, 0.0f, 100.0f);
    std::vector<float> lo(n, 5.0f), hi(n, 95.0f);
    std::vector<float> vp(n, 0.0f), gp(n, 0.0f);
    std::vector<float> v2 = v, u2 = u, vp2 = vp, gp2 = gp;
    ks.nesterov_update(v.data(), vp.data(), gp.data(), u.data(), g.data(),
                       lo.data(), hi.data(), n, 0.123, 0.5f);
    ka.nesterov_update(v2.data(), vp2.data(), gp2.data(), u2.data(), g.data(),
                       lo.data(), hi.data(), n, 0.123, 0.5f);
    ASSERT_EQ(0, std::memcmp(v.data(), v2.data(), n * 4)) << n;
    ASSERT_EQ(0, std::memcmp(u.data(), u2.data(), n * 4)) << n;
    ASSERT_EQ(0, std::memcmp(vp.data(), vp2.data(), n * 4)) << n;
    ASSERT_EQ(0, std::memcmp(gp.data(), gp2.data(), n * 4)) << n;
  }
}

// ---------------- vectorized exp ----------------

TEST(SimdExp, Within2UlpOnWaRange) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ka = simd::avx2_kernels();
  // The WA kernel's arguments are (x−max)/γ ∈ (-∞, 0]; beyond ≈−87.3 the
  // scalar expf underflows toward 0 and the vector kernel clamps. Sweep the
  // supported range densely.
  constexpr std::size_t kN = 200000;
  std::vector<float> in(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    in[i] = -87.3f * static_cast<float>(kN - 1 - i) / (kN - 1);
  }
  ka.vexp(in.data(), out.data(), kN);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const float ref = std::exp(in[i]);
    worst = std::max(worst, ulp_diff(out[i], ref));
    ASSERT_LE(ulp_diff(out[i], ref), 2) << "x=" << in[i] << " got=" << out[i]
                                        << " want=" << ref;
  }
  // Sanity: exact at 0.
  float one_in = 0.0f, one_out = 0.0f;
  ka.vexp(&one_in, &one_out, 1);
  EXPECT_EQ(one_out, 1.0f);
  SUCCEED() << "worst ulp=" << worst;
}

TEST(SimdExp, NoSubnormalOutputs) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ka = simd::avx2_kernels();
  // A subnormal exp term costs a microcode assist in vexp and in every
  // multiply that reads it; at and below the clamp the kernel returns +0.
  constexpr float kClamp = -87.33654785156250f;
  constexpr std::size_t kN = 400000;
  std::vector<float> in(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    in[i] = -120.0f * static_cast<float>(kN - 1 - i) / (kN - 1);
  }
  in[0] = kClamp;
  in[1] = std::nextafter(kClamp, 0.0f);
  in[2] = -std::numeric_limits<float>::infinity();
  ka.vexp(in.data(), out.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_NE(std::fpclassify(out[i]), FP_SUBNORMAL)
        << "x=" << in[i] << " got=" << out[i];
    if (in[i] <= kClamp) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i]), 0u) << "x=" << in[i];
    } else {
      ASSERT_GE(out[i], std::numeric_limits<float>::min()) << "x=" << in[i];
    }
  }
}

// ---------------- reductions ----------------

TEST(SimdReduce, MatchesScalarWithinTolerance) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ks = simd::scalar_kernels();
  const simd::Kernels& ka = simd::avx2_kernels();
  for (std::size_t n : {1u, 7u, 8u, 9u, 16u, 19u, 1000u, 4097u}) {
    std::vector<float> a = random_floats(n, 900 + n);
    std::vector<float> b = random_floats(n, 901 + n);
    EXPECT_NEAR(ka.sum(a.data(), n), ks.sum(a.data(), n), 1e-9 * n) << n;
    EXPECT_NEAR(ka.abs_sum(a.data(), n), ks.abs_sum(a.data(), n), 1e-9 * n)
        << n;
    EXPECT_NEAR(ka.dot(a.data(), b.data(), n), ks.dot(a.data(), b.data(), n),
                1e-8 * n)
        << n;
    EXPECT_NEAR(ka.diff_sq_sum(a.data(), b.data(), n),
                ks.diff_sq_sum(a.data(), b.data(), n), 1e-8 * n)
        << n;
    // Order-independent reductions must be exactly equal.
    EXPECT_EQ(ka.max_value(a.data(), n), ks.max_value(a.data(), n)) << n;
    EXPECT_EQ(ka.min_value(a.data(), n), ks.min_value(a.data(), n)) << n;
    EXPECT_EQ(ka.abs_max(a.data(), n), ks.abs_max(a.data(), n)) << n;
  }
}

TEST(SimdReduce, FiniteStatsCountsNonfinite) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ks = simd::scalar_kernels();
  const simd::Kernels& ka = simd::avx2_kernels();
  for (std::size_t n : {1u, 8u, 13u, 64u, 1001u}) {
    std::vector<float> a = random_floats(n, 950 + n);
    if (n > 2) {
      a[n / 2] = std::numeric_limits<float>::quiet_NaN();
      a[n - 1] = std::numeric_limits<float>::infinity();
      if (n > 4) a[1] = -std::numeric_limits<float>::infinity();
    }
    std::size_t bad_s = 0, bad_a = 0;
    double sum_s = 0.0, sum_a = 0.0;
    ks.finite_stats(a.data(), n, &bad_s, &sum_s);
    ka.finite_stats(a.data(), n, &bad_a, &sum_a);
    EXPECT_EQ(bad_a, bad_s) << n;
    EXPECT_NEAR(sum_a, sum_s, 1e-9 * n) << n;
  }
}

// ---------------- WA net-lane groups ----------------

/// One random net-lane group: `lanes` nets of `degree` pins over 40 cells, so
/// nets list one cell on several pins (pin 1 always repeats pin 0's cell).
struct WaCase {
  std::size_t degree, lanes;
  std::vector<float> x, y, ox, oy, weight;
  std::vector<std::uint32_t> cell;
};

WaCase wa_case(std::size_t degree, std::size_t lanes, std::uint64_t seed) {
  constexpr std::size_t kCells = 40;
  const std::size_t slots = degree * lanes;
  WaCase c{degree, lanes, random_floats(kCells, seed, 0.0f, 500.0f),
           random_floats(kCells, seed + 1, 0.0f, 500.0f),
           random_floats(slots, seed + 2, -4.0f, 4.0f),
           random_floats(slots, seed + 3, -4.0f, 4.0f),
           random_floats(lanes, seed + 4, 0.5f, 2.0f),
           std::vector<std::uint32_t>(slots)};
  Rng rng(seed + 5);
  for (auto& k : c.cell) {
    k = static_cast<std::uint32_t>(rng.uniform() * kCells) % kCells;
  }
  for (std::size_t l = 0; l < lanes; ++l) c.cell[lanes + l] = c.cell[l];
  return c;
}

struct WaOut {
  std::vector<double> hpwl, wl;
  std::vector<float> gx, gy;
};

WaOut wa_run(const simd::Kernels& k, const WaCase& c, float inv_gamma) {
  const std::size_t slots = c.cell.size();
  WaOut o{std::vector<double>(c.lanes), std::vector<double>(c.lanes),
          std::vector<float>(slots), std::vector<float>(slots)};
  std::vector<float> scratch(4 * slots);
  k.wa_group({c.x.data(), c.y.data(), c.cell.data(), c.ox.data(), c.oy.data(),
              c.weight.data(), c.degree, c.lanes, inv_gamma, scratch.data(),
              o.hpwl.data(), o.wl.data(), o.gx.data(), o.gy.data()});
  return o;
}

/// The historical per-net loop of one backend, net by net: scalar takes
/// std::exp terms and double products, AVX2 (`vec`) vexp terms and float
/// products; both then sum in double in pin order.
WaOut wa_reference(const simd::Kernels& k, bool vec, const WaCase& c,
                   float ig) {
  const std::size_t n = c.degree, lanes = c.lanes;
  WaOut o{std::vector<double>(lanes), std::vector<double>(lanes),
          std::vector<float>(n * lanes), std::vector<float>(n * lanes)};
  for (std::size_t l = 0; l < lanes; ++l) {
    const float w = c.weight[l];
    double wl = 0.0, ext = 0.0;
    for (int axis = 0; axis < 2; ++axis) {
      const std::vector<float>& pos = axis ? c.y : c.x;
      const std::vector<float>& off = axis ? c.oy : c.ox;
      std::vector<float> p(n), arg(2 * n), e(2 * n);
      float lo = std::numeric_limits<float>::max();
      float hi = std::numeric_limits<float>::lowest();
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = pos[c.cell[i * lanes + l]] + off[i * lanes + l];
        lo = std::min(lo, p[i]);
        hi = std::max(hi, p[i]);
      }
      ext = axis ? static_cast<float>(ext) + (hi - lo) : hi - lo;
      for (std::size_t i = 0; i < n; ++i) {
        arg[i] = (p[i] - hi) * ig;
        arg[n + i] = (lo - p[i]) * ig;
      }
      if (vec) {
        k.vexp(arg.data(), e.data(), 2 * n);
      } else {
        for (std::size_t i = 0; i < 2 * n; ++i) e[i] = std::exp(arg[i]);
      }
      const auto prod = [vec](float a, float b) {
        return vec ? static_cast<double>(a * b) : a * static_cast<double>(b);
      };
      double s = 0.0, xs = 0.0, u = 0.0, xu = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        s += e[i];
        xs += prod(p[i], e[i]);
        u += e[n + i];
        xu += prod(p[i], e[n + i]);
      }
      wl += xs / s - xu / u;
      std::vector<float>& g = axis ? o.gy : o.gx;
      for (std::size_t i = 0; i < n; ++i) {
        const double d_max = e[i] * (1.0 + (p[i] - xs / s) * ig) * (1.0 / s);
        const double d_min =
            e[n + i] * (1.0 - (p[i] - xu / u) * ig) * (1.0 / u);
        g[i * lanes + l] = w * static_cast<float>(d_max - d_min);
      }
    }
    o.hpwl[l] = static_cast<double>(w) * ext;
    o.wl[l] = static_cast<double>(w) * wl;
  }
  return o;
}

void expect_bitwise(const WaOut& got, const WaOut& want, const char* what) {
  EXPECT_EQ(0, std::memcmp(got.hpwl.data(), want.hpwl.data(),
                           got.hpwl.size() * sizeof(double))) << what;
  EXPECT_EQ(0, std::memcmp(got.wl.data(), want.wl.data(),
                           got.wl.size() * sizeof(double))) << what;
  EXPECT_EQ(0, std::memcmp(got.gx.data(), want.gx.data(),
                           got.gx.size() * sizeof(float))) << what;
  EXPECT_EQ(0, std::memcmp(got.gy.data(), want.gy.data(),
                           got.gy.size() * sizeof(float))) << what;
}

TEST(SimdWa, GroupMatchesPerNetReference) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ks = simd::scalar_kernels();
  const simd::Kernels& ka = simd::avx2_kernels();
  constexpr std::size_t kCap = ops::NetlistView::kLaneDegreeCap;
  const float ig = 1.0f / 3.5f;
  for (std::size_t degree = 2; degree <= kCap + 5; ++degree) {
    SCOPED_TRACE(::testing::Message() << "degree " << degree);
    const WaCase c = wa_case(degree, degree > kCap ? 1 : 8, 300 + degree);
    const WaOut s = wa_run(ks, c, ig);
    const WaOut a = wa_run(ka, c, ig);
    expect_bitwise(s, wa_reference(ks, false, c, ig), "scalar");
    expect_bitwise(a, wa_reference(ka, true, c, ig), "avx2");
    // Across backends the extents are exact; the exp terms differ by ≤2 ULP
    // and AVX2 rounds each x·s product to float (2⁻²⁴ of x ≤ 504). At
    // weights ≤ 2 and γ = 3.5 the worst seen is 3e-5 on WL and 3e-6 on a
    // pin's gradient.
    EXPECT_EQ(0, std::memcmp(s.hpwl.data(), a.hpwl.data(),
                             s.hpwl.size() * sizeof(double)));
    for (std::size_t l = 0; l < c.lanes; ++l) {
      EXPECT_NEAR(a.wl[l], s.wl[l], 1e-4) << l;
    }
    for (std::size_t k = 0; k < c.cell.size(); ++k) {
      ASSERT_NEAR(a.gx[k], s.gx[k], 1e-5f) << k;
      ASSERT_NEAR(a.gy[k], s.gy[k], 1e-5f) << k;
    }
  }
}

// ---------------- density footprints ----------------

/// Cells on a 32×32 grid of 2×2 bins at (10, 10), each in its own 4-bin
/// block and reaching half a bin into its first and last column and row, so
/// every column and row overlap is exact: 1 at the ends and 2 inside. Cells
/// 0–31 are 2–3 × 2–3 bins (cached footprints); cells 32–39 span 4–11 rows
/// (the span path, masked tails included). The field is noise in [−1, 1) plus
/// +2^50 and −2^50 on two bins of equal weight in each cell's footprint, once
/// for E_x and once for E_y. The large terms cancel exactly, so each float
/// gradient carries the rounding of its double sum, and summing the terms in
/// another order shows in the gradient bits.
struct CancellingFootprints {
  static constexpr int m = 32;
  static constexpr std::size_t n = 40;
  std::vector<float> x, y, hw, hh, scale;
  std::vector<double> ex, ey;

  CancellingFootprints() {
    Rng rng(17);
    for (int b = 0; b < m * m; ++b) {
      ex.push_back(rng.uniform(-1.0, 1.0));
      ey.push_back(rng.uniform(-1.0, 1.0));
    }
    for (std::size_t c = 0; c < n; ++c) {
      const int k = static_cast<int>(c);
      const bool span = k >= 32;
      const int bx0 = 4 * (k % 8), by0 = span ? 16 : 4 * (k / 8);
      const int nx = 2 + k % 2, ny = span ? k - 28 : 2 + k / 2 % 2;
      x.push_back(static_cast<float>(10 + 2 * bx0 + nx));
      y.push_back(static_cast<float>(10 + 2 * by0 + ny));
      hw.push_back(static_cast<float>(nx - 1));
      hh.push_back(static_cast<float>(ny - 1));
      scale.push_back(0.25f * static_cast<float>(1 + k % 3));
      cancel(rng, ex, bx0, nx, by0, ny);
      cancel(rng, ey, bx0, nx, by0, ny);
    }
  }

  static void cancel(Rng& rng, std::vector<double>& e, int bx0, int nx,
                     int by0, int ny) {
    // Weight class = number of axes on which the bin is inside: 1, 2 or 4.
    std::vector<int> cls[3];
    for (int i = 0; i < nx; ++i) {
      for (int j = 0; j < ny; ++j) {
        const int inner = (i > 0 && i < nx - 1) + (j > 0 && j < ny - 1);
        cls[inner].push_back((bx0 + i) * m + by0 + j);
      }
    }
    const std::vector<int>* bins = nullptr;
    do {
      bins = &cls[rng.uniform_int(0, 2)];
    } while (bins->size() < 2);
    const std::size_t a = rng.uniform_index(bins->size());
    std::size_t b = rng.uniform_index(bins->size() - 1);
    if (b >= a) ++b;
    e[(*bins)[a]] += 0x1p50;
    e[(*bins)[b]] -= 0x1p50;
  }
};

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

TEST(SimdDensity, SpanScatterGatherMatchScalar) {
  XP_REQUIRE_AVX2();
  using F = CancellingFootprints;
  const F f;
  struct Out {
    std::vector<double> map = std::vector<double>(F::m * F::m, 0.5);
    std::vector<float> g = std::vector<float>(2 * F::n);  // x then y
  };
  // Scatter then gather (cached footprints), or gather alone on an empty
  // table (every footprint rebuilt).
  const auto run = [&](const simd::Kernels& k, bool scatter) {
    std::vector<simd::Footprint> table(F::n);
    const simd::DensityGeom g{.lx = 10.0, .ly = 10.0,
                              .bin_w = 2.0, .bin_h = 2.0,
                              .inv_bin_w = 0.5, .inv_bin_h = 0.5,
                              .inv_bin_area = 0.25, .m = F::m,
                              .half_w = f.hw.data(), .half_h = f.hh.data(),
                              .scale = f.scale.data(), .table = table.data(),
                              .nm = F::n, .np = F::n};
    Out o;
    if (scatter) {
      k.density_scatter(g, f.x.data(), f.y.data(), {nullptr, 0, F::n},
                        o.map.data());
    }
    k.density_gather(g, f.x.data(), f.y.data(), {nullptr, 0, F::n},
                     f.ex.data(), f.ey.data(), 1.0f, o.g.data(),
                     o.g.data() + F::n);
    return o;
  };
  const auto hash = [](const auto& v) {
    return fnv1a(v.data(), v.size() * sizeof(v[0]));
  };
  // Map and gradient hashes recorded from the scalar per-bin loop and the
  // AVX2 span kernels before footprints were cached.
  struct Backend {
    const simd::Kernels& k;
    std::uint64_t map, grad;
  };
  const Backend backends[] = {
      {simd::scalar_kernels(), 0xe9697b8e859646efull, 0x453957ef63a0f503ull},
      {simd::avx2_kernels(), 0xe9697b8e859646efull, 0x8171cdc1446774ecull},
  };
  const Out s = run(simd::scalar_kernels(), true);
  for (const Backend& be : backends) {
    SCOPED_TRACE(simd::isa_name(be.k.isa));
    const Out cached = run(be.k, true), fresh = run(be.k, false);
    for (std::size_t b = 0; b < s.map.size(); ++b) {
      ASSERT_NEAR(cached.map[b], s.map[b], 1e-12) << "bin " << b;
    }
    EXPECT_EQ(hash(cached.map), be.map);
    EXPECT_EQ(hash(cached.g), be.grad);
    EXPECT_EQ(hash(fresh.g), be.grad);
  }
}

// ---------------- FFT butterflies ----------------

TEST(SimdFft, PassAndFullTransformMatchScalar) {
  XP_REQUIRE_AVX2();
  const simd::Kernels& ks = simd::scalar_kernels();
  const simd::Kernels& ka = simd::avx2_kernels();
  for (std::size_t n : {2u, 4u, 8u, 64u, 256u}) {
    // Build one stage's twiddles exactly like fft.cpp does for size n.
    std::vector<std::complex<double>> tw(n / 2);
    for (std::size_t kk = 0; kk < n / 2; ++kk) {
      const double ang = -2.0 * 3.14159265358979323846 *
                         static_cast<double>(kk) / static_cast<double>(n);
      tw[kk] = {std::cos(ang), std::sin(ang)};
    }
    Rng rng(n);
    std::vector<double> d_s(2 * n), d_a(2 * n);
    for (std::size_t i = 0; i < 2 * n; ++i) d_s[i] = rng.uniform() - 0.5;
    d_a = d_s;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      ks.fft_pass(d_s.data(), reinterpret_cast<const double*>(tw.data()), n,
                  len, n / len);
      ka.fft_pass(d_a.data(), reinterpret_cast<const double*>(tw.data()), n,
                  len, n / len);
      for (std::size_t i = 0; i < 2 * n; ++i) {
        ASSERT_NEAR(d_a[i], d_s[i], 1e-12 * n) << "n=" << n << " len=" << len;
      }
    }
    // conj_scale parity on identical inputs (the post-pass buffers can
    // differ in last bits, so compare on a shared copy).
    std::vector<double> c_s = d_s, c_a = d_s;
    ks.conj_scale(c_s.data(), n, 1.0 / n);
    ka.conj_scale(c_a.data(), n, 1.0 / n);
    for (std::size_t i = 0; i < 2 * n; ++i) {
      ASSERT_EQ(c_a[i], c_s[i]) << i;
    }
  }
}

TEST(SimdFft, FullRoundTripUnderEitherBackend) {
  // fft/ifft route through the active table: a round trip must reconstruct
  // the input under both backends.
  for (const char* backend : {"scalar", "avx2"}) {
    if (std::strcmp(backend, "avx2") == 0 && !have_avx2()) continue;
    ASSERT_TRUE(simd::select(backend));
    Rng rng(99);
    std::vector<fft::Complex> x(128);
    for (auto& c : x) c = {rng.uniform() - 0.5, rng.uniform() - 0.5};
    std::vector<fft::Complex> y = x;
    fft::fft(y.data(), y.size());
    fft::ifft(y.data(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(y[i].real(), x[i].real(), 1e-12) << backend << " " << i;
      EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-12) << backend << " " << i;
    }
  }
  simd::select("auto");
}

// ---------------- DCT plan pass ----------------

/// One 1-D transform of `x` on the plan engine: a single-row run_rows pass.
std::vector<double> plan_1d(fft::Kind1D kind, std::vector<double> x) {
  fft::PlanScratch scratch;
  const fft::PassOp op{x.data(), x.data(), kind};
  fft::run_rows(&op, 1, /*rows=*/1, x.size(), /*pool=*/nullptr, scratch);
  return x;
}

TEST(SimdFft, DctRoundTripUnderEitherBackend) {
  // dct→idct round trip and idxst against the naive reference must hold
  // under both backends, and the AVX2 DCT must match scalar bit for bit.
  std::vector<double> ref_dct;
  for (const char* backend : {"scalar", "avx2"}) {
    if (std::strcmp(backend, "avx2") == 0 && !have_avx2()) continue;
    ASSERT_TRUE(simd::select(backend));
    Rng rng(3);
    std::vector<double> x(128);
    for (auto& e : x) e = rng.uniform() - 0.5;
    const std::vector<double> y = plan_1d(fft::Kind1D::kDct, x);
    if (ref_dct.empty()) {
      ref_dct = y;
    } else {
      ASSERT_EQ(
          std::memcmp(y.data(), ref_dct.data(), y.size() * sizeof(double)), 0);
    }
    const std::vector<double> z = plan_1d(fft::Kind1D::kIdct, y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(z[i], x[i], 1e-10) << backend << " " << i;
    }
    const std::vector<double> s = plan_1d(fft::Kind1D::kIdxst, y);
    const std::vector<double> s_ref = fft::reference::idxst_naive_1d(y);
    ASSERT_EQ(s.size(), x.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      EXPECT_NEAR(s[i], s_ref[i], 1e-10) << backend << " " << i;
    }
  }
  simd::select("auto");
}

// ---------------- GP end-to-end ----------------

db::Database simd_db(std::uint64_t seed = 23) {
  io::GeneratorSpec spec;
  spec.name = "simd_unit";
  spec.num_cells = 600;
  spec.num_nets = 660;
  spec.seed = seed;
  return io::generate(spec);
}

core::PlacerConfig simd_cfg(int iters) {
  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = 64;
  cfg.max_iters = iters;
  cfg.threads = 1;
  return cfg;
}

TEST(SimdGP, Avx2MatchesScalarWithin1e4After20Iters) {
  XP_REQUIRE_AVX2();
  simd::select(simd::Isa::kScalar);
  db::Database db_s = simd_db();
  core::GlobalPlacer ps(db_s, simd_cfg(20));
  const core::GlobalPlaceResult rs = ps.run();

  simd::select(simd::Isa::kAvx2);
  db::Database db_a = simd_db();
  core::GlobalPlacer pa(db_a, simd_cfg(20));
  const core::GlobalPlaceResult ra = pa.run();
  simd::select("auto");

  ASSERT_TRUE(std::isfinite(ra.hpwl));
  EXPECT_NEAR(ra.hpwl, rs.hpwl, 1e-4 * rs.hpwl);
  EXPECT_NEAR(ra.overflow, rs.overflow, 1e-4);
}

TEST(SimdGP, Avx2BitwiseRunToRunDeterministic) {
  XP_REQUIRE_AVX2();
  simd::select(simd::Isa::kAvx2);
  db::Database db_a = simd_db();
  core::GlobalPlacer pa(db_a, simd_cfg(40));
  pa.run();
  db::Database db_b = simd_db();
  core::GlobalPlacer pb(db_b, simd_cfg(40));
  pb.run();
  simd::select("auto");
  for (std::size_t c = 0; c < db_a.num_movable(); ++c) {
    ASSERT_EQ(db_a.x(c), db_b.x(c)) << c;
    ASSERT_EQ(db_a.y(c), db_b.y(c)) << c;
  }
}

}  // namespace
}  // namespace xplace
