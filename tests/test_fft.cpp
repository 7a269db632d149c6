#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "fft/dct.h"
#include "fft/fft.h"
#include "fft/plan.h"
#include "fft/reference.h"
#include "util/rng.h"

namespace xplace::fft {
namespace {

std::vector<Complex> random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// One 1-D transform of `x` on the plan engine: a single-row run_rows pass.
std::vector<double> plan_1d(Kind1D kind, std::vector<double> x) {
  PlanScratch scratch;
  const PassOp op{x.data(), x.data(), kind};
  run_rows(&op, 1, /*rows=*/1, x.size(), /*pool=*/nullptr, scratch);
  return x;
}

double max_err(const std::vector<Complex>& a, const std::vector<Complex>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

double max_err(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

// ---------------- helpers ----------------

TEST(FftUtil, Pow2Predicates) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(12));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

// ---------------- complex FFT vs naive DFT ----------------

class FftVsNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsNaive, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  auto x = random_complex(n, 100 + n);
  auto fast = fft(x);
  auto naive = reference::dft(x);
  EXPECT_LT(max_err(fast, naive), 1e-9 * static_cast<double>(n));
}

TEST_P(FftVsNaive, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  auto x = random_complex(n, 200 + n);
  auto y = ifft(fft(x));
  EXPECT_LT(max_err(x, y), 1e-12 * static_cast<double>(n) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftVsNaive,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft, Linearity) {
  const std::size_t n = 64;
  auto a = random_complex(n, 1), b = random_complex(n, 2);
  std::vector<Complex> combo(n);
  const Complex alpha(2.0, -1.0), beta(0.5, 3.0);
  for (std::size_t i = 0; i < n; ++i) combo[i] = alpha * a[i] + beta * b[i];
  auto fc = fft(combo);
  auto fa = fft(a), fb = fft(b);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(fc[i] - (alpha * fa[i] + beta * fb[i])), 1e-9);
  }
}

TEST(Fft, ParsevalEnergyConservation) {
  const std::size_t n = 128;
  auto x = random_complex(n, 5);
  auto X = fft(x);
  double et = 0.0, ef = 0.0;
  for (const auto& c : x) et += std::norm(c);
  for (const auto& c : X) ef += std::norm(c);
  EXPECT_NEAR(ef, et * static_cast<double>(n), 1e-8 * et * n);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> x(16, Complex(0, 0));
  x[0] = Complex(1, 0);
  auto X = fft(x);
  for (const auto& c : X) EXPECT_LT(std::abs(c - Complex(1, 0)), 1e-12);
}

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  const std::size_t k0 = 5;
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * k0 * i / n;
    x[i] = Complex(std::cos(ang), std::sin(ang));
  }
  auto X = fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == k0) {
      EXPECT_NEAR(X[k].real(), static_cast<double>(n), 1e-8);
    } else {
      EXPECT_LT(std::abs(X[k]), 1e-8);
    }
  }
}

TEST(Fft2, RoundTrip2d) {
  const std::size_t r = 16, c = 32;
  auto x = random_complex(r * c, 9);
  auto y = x;
  fft2(y.data(), r, c);
  ifft2(y.data(), r, c);
  EXPECT_LT(max_err(x, y), 1e-10);
}

TEST(Fft2, MatchesSeparableNaive) {
  const std::size_t r = 8, c = 8;
  auto x = random_complex(r * c, 10);
  auto fast = x;
  fft2(fast.data(), r, c);
  // Naive 2-D DFT.
  std::vector<Complex> naive(r * c);
  for (std::size_t ku = 0; ku < r; ++ku) {
    for (std::size_t kv = 0; kv < c; ++kv) {
      Complex acc(0, 0);
      for (std::size_t u = 0; u < r; ++u) {
        for (std::size_t v = 0; v < c; ++v) {
          const double ang = -2.0 * std::numbers::pi *
                             (static_cast<double>(ku * u) / r +
                              static_cast<double>(kv * v) / c);
          acc += x[u * c + v] * Complex(std::cos(ang), std::sin(ang));
        }
      }
      naive[ku * c + kv] = acc;
    }
  }
  EXPECT_LT(max_err(fast, naive), 1e-8);
}

// ---------------- DCT family vs naive ----------------

class DctVsNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DctVsNaive, DctMatchesNaive) {
  const std::size_t n = GetParam();
  auto x = random_real(n, 300 + n);
  auto fast = plan_1d(Kind1D::kDct, x);
  auto naive = reference::dct2_naive_1d(x);
  EXPECT_LT(max_err(fast, naive), 1e-9 * static_cast<double>(n));
}

TEST_P(DctVsNaive, IdctMatchesNaive) {
  const std::size_t n = GetParam();
  auto x = random_real(n, 400 + n);
  auto fast = plan_1d(Kind1D::kIdct, x);
  auto naive = reference::idct_naive_1d(x);
  EXPECT_LT(max_err(fast, naive), 1e-9);
}

TEST_P(DctVsNaive, IdxstMatchesNaive) {
  const std::size_t n = GetParam();
  auto x = random_real(n, 500 + n);
  auto fast = plan_1d(Kind1D::kIdxst, x);
  auto naive = reference::idxst_naive_1d(x);
  EXPECT_LT(max_err(fast, naive), 1e-9);
}

TEST_P(DctVsNaive, IdctInvertsDct) {
  const std::size_t n = GetParam();
  auto x = random_real(n, 600 + n);
  auto y = plan_1d(Kind1D::kIdct, plan_1d(Kind1D::kDct, x));
  EXPECT_LT(max_err(x, y), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, DctVsNaive,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128));

TEST(Dct2d, RoundTrip) {
  const std::size_t m = 16;
  auto x = random_real(m * m, 7);
  auto y = x;
  dct2(y.data(), m, m);
  idct2(y.data(), m, m);
  EXPECT_LT(max_err(x, y), 1e-10);
}

TEST(Dct2d, ConstantMapHasOnlyDcCoefficient) {
  const std::size_t m = 8;
  std::vector<double> x(m * m, 3.5);
  dct2(x.data(), m, m);
  EXPECT_NEAR(x[0], 3.5 * m * m, 1e-9);
  for (std::size_t i = 1; i < m * m; ++i) EXPECT_NEAR(x[i], 0.0, 1e-9);
}

TEST(Idxst2d, SineSynthesisMatchesDirectSum) {
  // idxst_idct(coeff) must equal Σ α_u α_v c_uv sin(w_u x_n) cos(w_v y_m).
  const std::size_t m = 8;
  auto c = random_real(m * m, 12);
  auto fast = c;
  idxst_idct(fast.data(), m, m);
  for (std::size_t n = 0; n < m; ++n) {
    for (std::size_t l = 0; l < m; ++l) {
      double acc = 0.0;
      for (std::size_t u = 0; u < m; ++u) {
        for (std::size_t v = 0; v < m; ++v) {
          const double au = u == 0 ? 1.0 / m : 2.0 / m;
          const double av = v == 0 ? 1.0 / m : 2.0 / m;
          acc += au * av * c[u * m + v] *
                 std::sin(std::numbers::pi * u * (2.0 * n + 1) / (2.0 * m)) *
                 std::cos(std::numbers::pi * v * (2.0 * l + 1) / (2.0 * m));
        }
      }
      EXPECT_NEAR(fast[n * m + l], acc, 1e-10) << n << "," << l;
    }
  }
}

}  // namespace
}  // namespace xplace::fft
