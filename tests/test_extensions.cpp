// Tests for the extension modules: multi-threaded kernels, visualization
// writers, .wts net weights, and congestion-driven inflation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "io/bookshelf.h"
#include "io/generator.h"
#include "io/plot.h"
#include "ops/density.h"
#include "ops/parallel.h"
#include "route/congestion.h"
#include "route/inflation.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace {
namespace {

db::Database make_db(std::size_t cells = 1500, std::uint64_t seed = 71) {
  io::GeneratorSpec spec;
  spec.name = "ext_unit";
  spec.num_cells = cells;
  spec.num_nets = cells + 60;
  spec.seed = seed;
  db::Database db = io::generate(spec);
  db.insert_fillers(1);
  return db;
}

void get_positions(const db::Database& db, std::vector<float>& x,
                   std::vector<float>& y) {
  x.resize(db.num_cells_total());
  y.resize(db.num_cells_total());
  for (std::size_t c = 0; c < db.num_cells_total(); ++c) {
    x[c] = static_cast<float>(db.x(c));
    y[c] = static_cast<float>(db.y(c));
  }
}

// ---------------- parallel kernels ----------------

class ParallelKernels : public ::testing::TestWithParam<int> {};

/// The backends this CPU runs, each selected in turn by `fn`, then restored.
template <typename Fn>
void for_each_backend(Fn&& fn) {
  const simd::Isa saved = simd::isa();
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2}) {
    if (isa == simd::Isa::kAvx2 && !simd::cpu_has_avx2()) continue;
    simd::select(isa);
    SCOPED_TRACE(simd::isa_name(isa));
    fn(isa);
  }
  simd::select(saved);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

/// Hash of a WA result: the two sums, then the x and y gradients.
std::uint64_t wa_hash(double wa, double hpwl, const std::vector<float>& gx,
                      const std::vector<float>& gy) {
  std::uint64_t h = fnv1a(&wa, sizeof wa);
  h = fnv1a(&hpwl, sizeof hpwl, h);
  h = fnv1a(gx.data(), gx.size() * sizeof(float), h);
  return fnv1a(gy.data(), gy.size() * sizeof(float), h);
}

TEST_P(ParallelKernels, FusedWirelengthMatchesSerial) {
  // The pooled kernel is the serial one with its groups and cells split
  // across workers: the same bits at every pool size.
  const int threads = GetParam();
  db::Database db = make_db();
  const ops::NetlistView view = ops::build_netlist_view(db);
  std::vector<float> x, y;
  get_positions(db, x, y);
  ThreadPool pool(threads);
  for_each_backend([&](simd::Isa) {
    std::vector<float> gx_s(db.num_cells_total(), 0.0f),
        gy_s(db.num_cells_total(), 0.0f);
    const ops::WirelengthSums serial = ops::fused_wl_grad_hpwl(
        view, x.data(), y.data(), 6.0f, gx_s.data(), gy_s.data());
    std::vector<float> gx_p(db.num_cells_total(), 0.0f),
        gy_p(db.num_cells_total(), 0.0f);
    const ops::WirelengthSums par = ops::fused_wl_grad_hpwl_mt(
        view, x.data(), y.data(), 6.0f, gx_p.data(), gy_p.data(), pool);
    EXPECT_EQ(par.wa, serial.wa);
    EXPECT_EQ(par.hpwl, serial.hpwl);
    EXPECT_EQ(0, std::memcmp(gx_p.data(), gx_s.data(), gx_s.size() * 4));
    EXPECT_EQ(0, std::memcmp(gy_p.data(), gy_s.data(), gy_s.size() * 4));
  });
}

TEST(ParallelKernels, FusedWirelengthMatchesRecordedBits) {
  // 1-thread hashes of the fused kernel recorded before the net-lane layout
  // (the per-net loops); the separate WA/gradient/HPWL kernels must give
  // the same bits. At γ = 2 some pins' exp arguments pass the AVX2 clamp:
  // that row was recorded once the clamp returned +0 instead of a subnormal
  // (it moves 24 gradient entries of magnitude ≤ 1e-28; γ = 6 has no such
  // argument and keeps its older bits).
  struct Case {
    float gamma;
    std::uint64_t scalar, avx2;
  };
  const Case cases[] = {{6.0f, 0xf0e8b61565cb9248ull, 0x3a387f83fd1a4a56ull},
                        {2.0f, 0x6d1323a92c5345e6ull, 0xcb22263d4eff8c67ull}};
  db::Database db = make_db();
  const ops::NetlistView view = ops::build_netlist_view(db);
  std::vector<float> x, y;
  get_positions(db, x, y);
  for_each_backend([&](simd::Isa isa) {
    for (const Case& k : cases) {
      SCOPED_TRACE(k.gamma);
      const std::uint64_t want =
          isa == simd::Isa::kAvx2 ? k.avx2 : k.scalar;
      std::vector<float> gx(x.size(), 0.0f), gy(x.size(), 0.0f);
      const ops::WirelengthSums f = ops::fused_wl_grad_hpwl(
          view, x.data(), y.data(), k.gamma, gx.data(), gy.data());
      EXPECT_EQ(wa_hash(f.wa, f.hpwl, gx, gy), want);
      std::fill(gx.begin(), gx.end(), 0.0f);
      std::fill(gy.begin(), gy.end(), 0.0f);
      const double wa = ops::wa_wirelength(view, x.data(), y.data(), k.gamma);
      ops::wa_gradient(view, x.data(), y.data(), k.gamma, gx.data(),
                       gy.data());
      EXPECT_EQ(wa_hash(wa, ops::hpwl(view, x.data(), y.data()), gx, gy),
                want);
    }
  });
}

TEST_P(ParallelKernels, DensityScatterMatchesSerial) {
  const int threads = GetParam();
  db::Database db = make_db();
  ops::DensityGrid grid(db, 64);
  std::vector<float> x, y;
  get_positions(db, x, y);

  std::vector<double> serial(grid.num_bins());
  grid.accumulate_range("s", x.data(), y.data(), 0, db.num_cells_total(),
                        serial.data(), true);
  ThreadPool pool(threads);
  std::vector<double> par(grid.num_bins());
  ops::accumulate_range_mt(grid, "p", x.data(), y.data(), 0,
                           db.num_cells_total(), par.data(), true, pool);
  for (std::size_t b = 0; b < grid.num_bins(); ++b) {
    EXPECT_NEAR(par[b], serial[b], 1e-9 + 1e-9 * std::fabs(serial[b])) << b;
  }
}

TEST_P(ParallelKernels, GatherMatchesSerial) {
  const int threads = GetParam();
  db::Database db = make_db();
  ops::DensityGrid grid(db, 64);
  std::vector<float> x, y;
  get_positions(db, x, y);
  // Synthetic field.
  std::vector<double> ex(grid.num_bins()), ey(grid.num_bins());
  for (std::size_t b = 0; b < grid.num_bins(); ++b) {
    ex[b] = std::sin(0.01 * static_cast<double>(b));
    ey[b] = std::cos(0.013 * static_cast<double>(b));
  }
  std::vector<float> gx_s(db.num_cells_total(), 0.0f), gy_s(db.num_cells_total(), 0.0f);
  grid.gather_field("s", x.data(), y.data(), 0, db.num_movable(), ex.data(),
                    ey.data(), -1.0f, gx_s.data(), gy_s.data());
  ThreadPool pool(threads);
  std::vector<float> gx_p(db.num_cells_total(), 0.0f), gy_p(db.num_cells_total(), 0.0f);
  ops::gather_field_mt(grid, "p", x.data(), y.data(), 0, db.num_movable(),
                       ex.data(), ey.data(), -1.0f, gx_p.data(), gy_p.data(),
                       pool);
  // Each cell is computed exactly as the serial kernel computes it.
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    EXPECT_EQ(gx_p[c], gx_s[c]) << c;
    EXPECT_EQ(gy_p[c], gy_s[c]) << c;
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelKernels,
                         ::testing::Values(1, 2, 3, 4));

TEST(ParallelKernels, DeterministicForFixedPoolSize) {
  db::Database db = make_db();
  const ops::NetlistView view = ops::build_netlist_view(db);
  std::vector<float> x, y;
  get_positions(db, x, y);
  ThreadPool pool(3);
  std::vector<float> g1(db.num_cells_total(), 0.0f), g2(db.num_cells_total(), 0.0f);
  std::vector<float> h1(db.num_cells_total(), 0.0f), h2(db.num_cells_total(), 0.0f);
  const auto r1 = ops::fused_wl_grad_hpwl_mt(view, x.data(), y.data(), 6.0f,
                                             g1.data(), h1.data(), pool);
  const auto r2 = ops::fused_wl_grad_hpwl_mt(view, x.data(), y.data(), 6.0f,
                                             g2.data(), h2.data(), pool);
  EXPECT_EQ(r1.wa, r2.wa);
  EXPECT_EQ(r1.hpwl, r2.hpwl);
  for (std::size_t c = 0; c < view.num_cells; ++c) {
    ASSERT_EQ(g1[c], g2[c]);
    ASSERT_EQ(h1[c], h2[c]);
  }
}

// ---------------- plotting ----------------

TEST(Plot, SvgContainsCellsAndValidStructure) {
  db::Database db = make_db(200, 3);
  const std::string path = testing::TempDir() + "/place.svg";
  io::SvgOptions opts;
  opts.draw_nets = true;
  opts.max_nets = 20;
  io::write_placement_svg(db, path, opts);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("<svg"), std::string::npos);
  EXPECT_NE(content.find("</svg>"), std::string::npos);
  // One rect per movable + fixed cell at least.
  std::size_t rects = 0;
  for (std::size_t pos = 0; (pos = content.find("<rect", pos)) != std::string::npos;
       ++pos) {
    ++rects;
  }
  EXPECT_GT(rects, db.num_physical());
}

TEST(Plot, PpmHeaderAndSize) {
  const int m = 16;
  std::vector<double> map(m * m);
  for (int i = 0; i < m * m; ++i) map[i] = i;
  const std::string path = testing::TempDir() + "/density.ppm";
  io::write_density_ppm(map, m, path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  int w, h, maxv;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, m);
  EXPECT_EQ(h, m);
  EXPECT_EQ(maxv, 255);
  in.get();  // single whitespace
  std::vector<char> pixels(static_cast<std::size_t>(m) * m * 3);
  in.read(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  EXPECT_EQ(in.gcount(), static_cast<std::streamsize>(pixels.size()));
}

TEST(Plot, SignedMapUsesDivergingColors) {
  const int m = 8;
  std::vector<double> map(m * m, 0.0);
  map[0] = -1.0;   // strongly negative → blue
  map[m * m - 1] = 1.0;  // strongly positive → red
  const std::string path = testing::TempDir() + "/field.ppm";
  io::write_signed_map_ppm(map, m, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);  // P6
  std::getline(in, line);  // dims
  std::getline(in, line);  // maxval
  std::vector<unsigned char> px(static_cast<std::size_t>(m) * m * 3);
  in.read(reinterpret_cast<char*>(px.data()), static_cast<std::streamsize>(px.size()));
  // map[0] = (ix=0, iy=0) → bottom-left → image row m-1, col 0.
  const std::size_t bottom_left = (static_cast<std::size_t>(m - 1) * m + 0) * 3;
  EXPECT_LT(px[bottom_left], 100);        // low red
  EXPECT_EQ(px[bottom_left + 2], 255);    // full blue
  // map[last] = (ix=m-1, iy=m-1) → top-right → row 0, col m-1.
  const std::size_t top_right = (static_cast<std::size_t>(m - 1)) * 3;
  EXPECT_EQ(px[top_right], 255);          // full red
  EXPECT_LT(px[top_right + 2], 100);      // low blue
}

// ---------------- .wts net weights ----------------

TEST(Wts, WeightsSurviveRoundTripAndScaleHpwl) {
  namespace fs = std::filesystem;
  const std::string dir = testing::TempDir() + "/wts_test";
  fs::create_directories(dir);
  io::GeneratorSpec spec;
  spec.name = "wts";
  spec.num_cells = 100;
  spec.num_nets = 110;
  spec.seed = 5;
  db::Database orig = io::generate(spec);
  io::write_bookshelf(orig, dir, "wts");
  // Overwrite the .wts with non-trivial weights.
  {
    std::ofstream out(dir + "/wts.wts");
    out << "UCLA wts 1.0\n";
    for (std::size_t e = 0; e < orig.num_nets(); ++e) {
      out << orig.net_name(e) << " " << (e % 3 == 0 ? 2.5 : 1.0) << "\n";
    }
  }
  db::Database back = io::read_bookshelf_aux(dir + "/wts.aux");
  double expected = 0.0;
  // Verify weights and the weighted HPWL.
  for (std::size_t e = 0; e < back.num_nets(); ++e) {
    const double w = back.net_weight(e);
    EXPECT_TRUE(w == 2.5 || w == 1.0);
    expected += w * back.net_hpwl(e);
  }
  EXPECT_NEAR(back.hpwl(), expected, 1e-9 * expected);
  EXPECT_GT(back.hpwl(), orig.hpwl());  // some weights > 1
}

// ---------------- inflation ----------------

TEST(Inflation, FactorsTrackCongestion) {
  db::Database db = make_db(800, 11);
  route::CongestionConfig ccfg;
  ccfg.grid = 16;
  ccfg.tracks_per_gcell = 2.0;  // tight: guaranteed congestion
  const route::CongestionResult res = route::estimate_congestion(db, ccfg);
  const auto factors = route::compute_inflation_factors(db, res);
  ASSERT_EQ(factors.size(), db.num_movable());
  double max_f = 1.0;
  for (double f : factors) {
    EXPECT_GE(f, 1.0);
    EXPECT_LE(f, route::InflationConfig{}.max_factor);
    max_f = std::max(max_f, f);
  }
  EXPECT_GT(max_f, 1.0) << "tight capacity must inflate something";
}

TEST(Inflation, NoInflationWithAmpleCapacity) {
  db::Database db = make_db(400, 13);
  route::CongestionConfig ccfg;
  ccfg.grid = 16;
  ccfg.tracks_per_gcell = 1e6;
  const auto factors = route::compute_inflation_factors(
      db, route::estimate_congestion(db, ccfg));
  for (double f : factors) EXPECT_DOUBLE_EQ(f, 1.0);
}

TEST(Inflation, ApplyGrowsAreaWithinBudget) {
  io::GeneratorSpec spec;
  spec.name = "infl";
  spec.num_cells = 500;
  spec.num_nets = 520;
  spec.seed = 17;
  db::Database db = io::generate(spec);  // no fillers yet
  std::vector<double> factors(db.num_movable(), 1.5);
  const double before = db.total_movable_area();
  const double growth = route::apply_inflation(db, factors);
  EXPECT_GT(growth, 1.0);
  EXPECT_NEAR(db.total_movable_area(), before * growth, 1e-6 * before);
  // Budget respected.
  const double free_area = db.region().area() - db.fixed_area_in_region();
  EXPECT_LE(db.total_movable_area(), 0.96 * db.target_density() * free_area);
}

TEST(Inflation, ScaleWidthGuards) {
  db::Database db = make_db(100, 19);  // fillers inserted
  EXPECT_THROW(db.scale_cell_width(0, 1.2), std::logic_error);  // after fillers
  io::GeneratorSpec spec;
  spec.name = "guard";
  spec.num_cells = 50;
  spec.num_nets = 60;
  spec.seed = 23;
  db::Database fresh = io::generate(spec);
  EXPECT_THROW(fresh.scale_cell_width(fresh.num_movable(), 1.2),
               std::invalid_argument);  // fixed cell
  EXPECT_THROW(fresh.scale_cell_width(0, 0.0), std::invalid_argument);
  const double w0 = fresh.width(0);
  fresh.scale_cell_width(0, 2.0);
  EXPECT_DOUBLE_EQ(fresh.width(0), 2.0 * w0);
}

}  // namespace
}  // namespace xplace
