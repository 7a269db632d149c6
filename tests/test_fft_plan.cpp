// Tests for the fused FFT/DCT plan engine (fft/plan.h, DESIGN.md §15):
// numerical parity against the naive O(N²) references across every
// power-of-two size the solver can see, bitwise scalar↔AVX2 and
// pooled↔serial agreement, plan-cache thread-safety under first-build races
// (the "concurrency" label puts this binary in the TSan lane), and the
// PoissonSolver's batched pass pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include "fft/dct.h"
#include "fft/plan.h"
#include "fft/reference.h"
#include "ops/electrostatics.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace::fft {
namespace {

std::vector<double> random_buf(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = dist(rng);
  return x;
}

using RefFn = std::vector<double> (*)(const std::vector<double>&);

/// Separable 2-D reference: naive 1-D transform along every row (dimension
/// 1), then along every column (dimension 0) — the same pass order the plan
/// executors use.
std::vector<double> ref_2d(const std::vector<double>& in, std::size_t rows,
                           std::size_t cols, RefFn row_fn, RefFn col_fn) {
  std::vector<double> data = in;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> line(data.begin() + r * cols,
                             data.begin() + (r + 1) * cols);
    line = row_fn(line);
    std::copy(line.begin(), line.end(), data.begin() + r * cols);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    std::vector<double> line(rows);
    for (std::size_t r = 0; r < rows; ++r) line[r] = data[r * cols + c];
    line = col_fn(line);
    for (std::size_t r = 0; r < rows; ++r) data[r * cols + c] = line[r];
  }
  return data;
}

// ---- 1-D pair core vs the naive references --------------------------------

TEST(FftPlan, TransformPairMatchesNaiveAcrossSizes) {
  for (std::size_t n = 2; n <= 1024; n <<= 1) {
    const Plan& p = plan(n);
    const std::vector<double> a = random_buf(n, 17 + n);
    const std::vector<double> b = random_buf(n, 29 + n);
    std::vector<double> z(2 * n);
    const double tol = 1e-9 * static_cast<double>(n);

    struct Case {
      Kind1D kind;
      RefFn ref;
    };
    const Case cases[] = {{Kind1D::kDct, reference::dct2_naive_1d},
                          {Kind1D::kIdct, reference::idct_naive_1d},
                          {Kind1D::kIdxst, reference::idxst_naive_1d}};
    for (const Case& c : cases) {
      std::vector<double> da(n), db(n);
      transform_pair(p, c.kind, a.data(), b.data(), da.data(), db.data(),
                     /*stride=*/1, z.data());
      const std::vector<double> ra = c.ref(a);
      const std::vector<double> rb = c.ref(b);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(da[i], ra[i], tol) << "kind=" << int(c.kind) << " n=" << n;
        ASSERT_NEAR(db[i], rb[i], tol) << "kind=" << int(c.kind) << " n=" << n;
      }
    }
  }
}

TEST(FftPlan, SelfPairMatchesDistinctPair) {
  // The odd-leftover line runs as a pair with itself (sb == sa, db == da);
  // the result must equal the b-sequence output of a distinct-buffer run.
  for (std::size_t n : {4u, 64u}) {
    const Plan& p = plan(n);
    const std::vector<double> x = random_buf(n, 5 + n);
    std::vector<double> z(2 * n);
    for (Kind1D kind : {Kind1D::kDct, Kind1D::kIdct, Kind1D::kIdxst}) {
      std::vector<double> self(n), da(n), db(n);
      transform_pair(p, kind, x.data(), x.data(), self.data(), self.data(), 1,
                     z.data());
      transform_pair(p, kind, x.data(), x.data(), da.data(), db.data(), 1,
                     z.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(self[i], db[i]) << "kind=" << int(kind) << " n=" << n;
      }
    }
  }
}

// ---- 2-D wrappers vs the separable reference (incl. degenerate shapes) ----

TEST(FftPlan, TwoDTransformsMatchNaiveOnNonSquareShapes) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {8, 64}, {64, 8}, {16, 16}, {1, 16}, {16, 1}, {2, 256}, {256, 2}};
  for (const auto& [rows, cols] : shapes) {
    const std::vector<double> in = random_buf(rows * cols, 3 * rows + cols);
    const double tol = 1e-9 * static_cast<double>(rows * cols);

    std::vector<double> got = in;
    dct2(got.data(), rows, cols);
    std::vector<double> want = ref_2d(in, rows, cols, reference::dct2_naive_1d,
                                      reference::dct2_naive_1d);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], want[i], tol) << rows << "x" << cols << " dct2 @" << i;

    got = in;
    idct2(got.data(), rows, cols);
    want = ref_2d(in, rows, cols, reference::idct_naive_1d,
                  reference::idct_naive_1d);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], want[i], tol) << rows << "x" << cols << " idct2 @" << i;

    got = in;
    idxst_idct(got.data(), rows, cols);
    want = ref_2d(in, rows, cols, reference::idct_naive_1d,
                  reference::idxst_naive_1d);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], want[i], tol)
          << rows << "x" << cols << " idxst_idct @" << i;

    got = in;
    idct_idxst(got.data(), rows, cols);
    want = ref_2d(in, rows, cols, reference::idxst_naive_1d,
                  reference::idct_naive_1d);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_NEAR(got[i], want[i], tol)
          << rows << "x" << cols << " idct_idxst @" << i;
  }
}

TEST(FftPlan, DctIdctRoundTripRecoversInput) {
  for (std::size_t n = 2; n <= 1024; n <<= 1) {
    const std::vector<double> x = random_buf(n, 7 + n);
    std::vector<double> y = x;
    PlanScratch scratch;
    const PassOp fwd{y.data(), y.data(), Kind1D::kDct};
    run_rows(&fwd, 1, /*rows=*/1, n, /*pool=*/nullptr, scratch);
    const PassOp inv{y.data(), y.data(), Kind1D::kIdct};
    run_rows(&inv, 1, /*rows=*/1, n, /*pool=*/nullptr, scratch);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_NEAR(y[i], x[i], 1e-9 * static_cast<double>(n)) << "n=" << n;
    }
  }
}

// ---- bitwise contracts ----------------------------------------------------

TEST(FftPlan, ScalarAndAvx2AreBitwiseIdentical) {
  if (!simd::cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{64, 64},
                                   {8, 128},
                                   {128, 8},
                                   {2, 2}}) {
    const std::vector<double> in = random_buf(rows * cols, 11 * rows + cols);
    for (int t = 0; t < 4; ++t) {
      std::vector<double> a = in, b = in;
      auto run = [&](std::vector<double>& d) {
        switch (t) {
          case 0: dct2(d.data(), rows, cols); break;
          case 1: idct2(d.data(), rows, cols); break;
          case 2: idxst_idct(d.data(), rows, cols); break;
          default: idct_idxst(d.data(), rows, cols); break;
        }
      };
      simd::select(simd::Isa::kScalar);
      run(a);
      simd::select(simd::Isa::kAvx2);
      run(b);
      simd::select("auto");
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
          << rows << "x" << cols << " transform " << t;
    }
  }
}

TEST(FftPlan, PooledMatchesSerialBitwiseAndRunToRun) {
  ThreadPool pool(4);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{64, 64},
                                   {32, 128},
                                   {128, 32}}) {
    const std::vector<double> in = random_buf(rows * cols, rows + 13 * cols);
    std::vector<double> serial = in, pooled1 = in, pooled2 = in;
    idxst_idct(serial.data(), rows, cols, nullptr);
    idxst_idct(pooled1.data(), rows, cols, &pool);
    idxst_idct(pooled2.data(), rows, cols, &pool);
    ASSERT_EQ(0, std::memcmp(serial.data(), pooled1.data(),
                             serial.size() * sizeof(double)));
    ASSERT_EQ(0, std::memcmp(pooled1.data(), pooled2.data(),
                             pooled1.size() * sizeof(double)));
  }
}

// ---- plan cache -----------------------------------------------------------

TEST(FftPlan, PlanCacheReturnsSameInstanceUnderConcurrentFirstBuild) {
  // Fresh process (one test per ctest entry): size 4096 is not built yet, so
  // all threads race the first build and must agree on one immutable plan.
  constexpr std::size_t kN = 4096;
  constexpr int kThreads = 8;
  std::atomic<const Plan*> seen[kThreads];
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      seen[t].store(&plan(kN));
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[0].load(), seen[t].load());
  }
  const Plan& p = *seen[0].load();
  EXPECT_EQ(p.n, kN);
  EXPECT_EQ(p.tw.size(), kN - 1);  // Σ len/2 over stages = n − 1
  EXPECT_EQ(p.ph.size(), kN);
  EXPECT_EQ(p.fwd_perm.size(), kN);
}

// ---- solver integration ---------------------------------------------------

TEST(FftPlan, PoissonSolverPooledMatchesSerialBitwise) {
  constexpr int kM = 64;
  const std::vector<double> rho = random_buf(kM * kM, 123);
  ops::PoissonSolver serial(kM, 1.0, 1.0);
  serial.solve(rho.data(), /*want_potential=*/true);

  ThreadPool pool(4);
  ops::PoissonSolver pooled(kM, 1.0, 1.0);
  pooled.set_pool(&pool);
  pooled.solve(rho.data(), /*want_potential=*/true);
  pooled.solve(rho.data(), /*want_potential=*/true);  // run-to-run

  ASSERT_EQ(0, std::memcmp(serial.ex().data(), pooled.ex().data(),
                           serial.ex().size() * sizeof(double)));
  ASSERT_EQ(0, std::memcmp(serial.ey().data(), pooled.ey().data(),
                           serial.ey().size() * sizeof(double)));
  ASSERT_EQ(0, std::memcmp(serial.psi().data(), pooled.psi().data(),
                           serial.psi().size() * sizeof(double)));
  EXPECT_EQ(serial.energy(rho.data()), pooled.energy(rho.data()));
}

TEST(FftPlan, PoissonSolverFieldHasZeroMeanPotentialGradientStructure) {
  // ψ from a pure cos(w_u x)cos(w_v y) density must come back scaled by
  // 1/(w_u² + w_v²) — the spectral scale fused into the column pass.
  constexpr int kM = 32;
  constexpr std::size_t kN = static_cast<std::size_t>(kM) * kM;
  std::vector<double> rho(kN);
  const double wu = std::numbers::pi * 2.0 / kM;  // u = 2, bin_w = 1
  const double wv = std::numbers::pi * 3.0 / kM;  // v = 3
  for (int x = 0; x < kM; ++x) {
    for (int y = 0; y < kM; ++y) {
      rho[static_cast<std::size_t>(x) * kM + y] =
          std::cos(wu * (x + 0.5)) * std::cos(wv * (y + 0.5));
    }
  }
  ops::PoissonSolver solver(kM, 1.0, 1.0);
  solver.solve(rho.data(), /*want_potential=*/true);
  const double scale = 1.0 / (wu * wu + wv * wv);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_NEAR(solver.psi()[i], rho[i] * scale, 1e-9);
  }
}

}  // namespace
}  // namespace xplace::fft
