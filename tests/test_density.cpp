// Contract tests for the density grid's footprint cache (ops/density.h).
//
// Every scatter stores each cell's footprint; every gather reuses it when the
// cell's position bits match, and rebuilds it otherwise. The cache must be
// invisible: each test compares against a gather on a fresh grid (an empty
// table, so every lookup misses) and demands equal bits. Each test runs on
// the scalar and on the AVX2 kernel table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/placer.h"
#include "io/generator.h"
#include "ops/density.h"
#include "ops/parallel.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace {
namespace {

db::Database make_db(int fences = 0, std::size_t cells = 1500) {
  io::GeneratorSpec spec;
  spec.name = "footprint_unit";
  spec.num_cells = cells;
  spec.num_nets = cells + 60;
  spec.seed = 29;
  spec.num_fences = fences;
  db::Database db = io::generate(spec);
  db.insert_fillers(3);
  return db;
}

struct Positions {
  std::vector<float> x, y;
};

Positions positions(const db::Database& db) {
  Positions p;
  for (std::size_t c = 0; c < db.num_cells_total(); ++c) {
    p.x.push_back(static_cast<float>(db.x(c)));
    p.y.push_back(static_cast<float>(db.y(c)));
  }
  return p;
}

/// Moves every 7th cell, in turn by a fraction of a bin, by one float ULP in
/// x, and by one ULP in y (so only one position tag's low bit changes).
void move_every_7th(const ops::DensityGrid& grid, Positions& p) {
  for (std::size_t c = 0; c < p.x.size(); c += 7) {
    switch ((c / 7) % 3) {
      case 0:
        p.x[c] += static_cast<float>(0.37 * grid.bin_w());
        p.y[c] -= static_cast<float>(0.61 * grid.bin_h());
        break;
      case 1:
        p.x[c] = std::nextafter(p.x[c], 1e30f);
        break;
      default:
        p.y[c] = std::nextafter(p.y[c], -1e30f);
    }
  }
}

struct Field {
  std::vector<double> ex, ey;
};

Field make_field(const ops::DensityGrid& grid) {
  Field f;
  for (std::size_t b = 0; b < grid.num_bins(); ++b) {
    f.ex.push_back(std::sin(0.011 * static_cast<double>(b)));
    f.ey.push_back(std::cos(0.017 * static_cast<double>(b)));
  }
  return f;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

struct Grad {
  std::vector<float> x, y;
  explicit Grad(std::size_t n) : x(n, 0.0f), y(n, 0.0f) {}
  bool operator==(const Grad& o) const {
    return same_bits(x, o.x) && same_bits(y, o.y);
  }
};

/// Gathers the movable cells and the fillers (the GP's two gathers).
Grad gather(const ops::DensityGrid& grid, const db::Database& db,
            const Positions& p, const Field& f, ThreadPool* pool = nullptr) {
  Grad g(db.num_cells_total());
  const std::size_t ranges[2][2] = {{0, db.num_movable()},
                                    {db.num_physical(), db.num_cells_total()}};
  for (const auto& r : ranges) {
    if (pool != nullptr) {
      ops::gather_field_mt(grid, "g", p.x.data(), p.y.data(), r[0], r[1],
                           f.ex.data(), f.ey.data(), -1.0f, g.x.data(),
                           g.y.data(), *pool);
    } else {
      grid.gather_field("g", p.x.data(), p.y.data(), r[0], r[1], f.ex.data(),
                        f.ey.data(), -1.0f, g.x.data(), g.y.data());
    }
  }
  return g;
}

/// Scatters the physical cells and the fillers into two maps (the GP's
/// extracted D and D_fl), returning them concatenated.
std::vector<double> scatter(const ops::DensityGrid& grid,
                            const db::Database& db, const Positions& p,
                            ThreadPool* pool = nullptr) {
  std::vector<double> maps(2 * grid.num_bins());
  const std::size_t ranges[2][2] = {{0, db.num_physical()},
                                    {db.num_physical(), db.num_cells_total()}};
  for (int i = 0; i < 2; ++i) {
    double* map = maps.data() + i * grid.num_bins();
    if (pool != nullptr) {
      ops::accumulate_range_mt(grid, "s", p.x.data(), p.y.data(),
                               ranges[i][0], ranges[i][1], map, true, *pool);
    } else {
      grid.accumulate_range("s", p.x.data(), p.y.data(), ranges[i][0],
                            ranges[i][1], map, true);
    }
  }
  return maps;
}

class DensityFootprint : public ::testing::TestWithParam<simd::Isa> {
 protected:
  void SetUp() override {
    if (GetParam() == simd::Isa::kAvx2 && !simd::cpu_has_avx2()) {
      GTEST_SKIP() << "CPU lacks AVX2+FMA";
    }
    saved_ = simd::isa();
    simd::select(GetParam());
  }
  void TearDown() override { simd::select(saved_); }

 private:
  simd::Isa saved_ = simd::Isa::kScalar;
};

TEST_P(DensityFootprint, ScatterThenGatherEqualsFreshGather) {
  const db::Database db = make_db();
  const Positions p = positions(db);
  const ops::DensityGrid grid(db, 64);
  const Field f = make_field(grid);
  const std::vector<double> maps = scatter(grid, db, p);
  const Grad cached = gather(grid, db, p, f);

  const ops::DensityGrid fresh(db, 64);
  EXPECT_TRUE(cached == gather(fresh, db, p, f));
  // A second round trip on the same grid changes nothing either.
  EXPECT_TRUE(same_bits(scatter(grid, db, p), maps));
  EXPECT_TRUE(gather(grid, db, p, f) == cached);
}

TEST_P(DensityFootprint, StaleEntriesAfterMovesMatchFreshGather) {
  const db::Database db = make_db();
  Positions p = positions(db);
  const ops::DensityGrid grid(db, 64);
  const Field f = make_field(grid);
  (void)scatter(grid, db, p);
  move_every_7th(grid, p);
  const ops::DensityGrid fresh(db, 64);
  EXPECT_TRUE(gather(grid, db, p, f) == gather(fresh, db, p, f));
  // Re-scattering at the moved positions refreshes the entries.
  EXPECT_TRUE(same_bits(scatter(grid, db, p), scatter(fresh, db, p)));
  EXPECT_TRUE(gather(grid, db, p, f) == gather(fresh, db, p, f));
}

TEST_P(DensityFootprint, PooledMatchesSerialBitwise) {
  const db::Database db = make_db();
  const Positions p = positions(db);
  const ops::DensityGrid serial_grid(db, 64);
  const Field f = make_field(serial_grid);
  const std::vector<double> serial_maps = scatter(serial_grid, db, p);
  const Grad serial = gather(serial_grid, db, p, f);
  // A small range (< 512 cells) scatters in place on any pool size.
  const std::size_t lo = db.num_physical(), hi = lo + 300;
  ASSERT_LE(hi, db.num_cells_total());
  std::vector<double> small_serial(serial_grid.num_bins());
  serial_grid.accumulate_range("s", p.x.data(), p.y.data(), lo, hi,
                               small_serial.data(), true);

  for (int threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const ops::DensityGrid grid(db, 64);
    const std::vector<double> maps = scatter(grid, db, p, &pool);
    // Pooled gathers read the entries the pooled scatter wrote.
    EXPECT_TRUE(gather(grid, db, p, f, &pool) == serial);
    if (threads == 1) {
      EXPECT_TRUE(same_bits(maps, serial_maps));
    }
    std::vector<double> small(grid.num_bins());
    ops::accumulate_range_mt(grid, "s", p.x.data(), p.y.data(), lo, hi,
                             small.data(), true, pool);
    EXPECT_TRUE(same_bits(small, small_serial));
  }
}

TEST_P(DensityFootprint, FenceCellListsMeetTheSameContract) {
  const db::Database db = make_db(/*fences=*/2);
  ASSERT_TRUE(db.has_fences());
  Positions p = positions(db);
  std::vector<std::vector<std::uint32_t>> lists(db.fences().size() + 1);
  for (std::size_t c = 0; c < db.num_cells_total(); ++c) {
    if (db.kind(c) == db::CellKind::kFixed) continue;
    const int k = db.cell_fence(c);
    lists[k >= 0 ? k : db.fences().size()].push_back(
        static_cast<std::uint32_t>(c));
  }
  ASSERT_LT(lists[0].size(), 512u);  // exercises the in-place pooled scatter

  const auto round_trip = [&](const ops::DensityGrid& grid, ThreadPool* pool,
                              std::vector<double>& maps) {
    const Field f = make_field(grid);
    Grad g(db.num_cells_total());
    maps.assign(lists.size() * grid.num_bins(), 0.0);
    for (std::size_t k = 0; k < lists.size(); ++k) {
      double* map = maps.data() + k * grid.num_bins();
      if (pool != nullptr) {
        ops::accumulate_cells_mt(grid, "s", p.x.data(), p.y.data(), lists[k],
                                 map, false, *pool);
        ops::gather_field_cells_mt(grid, "g", p.x.data(), p.y.data(),
                                   lists[k], f.ex.data(), f.ey.data(), -1.0f,
                                   g.x.data(), g.y.data(), *pool);
      } else {
        grid.accumulate_cells("s", p.x.data(), p.y.data(), lists[k], map,
                              false);
        grid.gather_field_cells("g", p.x.data(), p.y.data(), lists[k],
                                f.ex.data(), f.ey.data(), -1.0f, g.x.data(),
                                g.y.data());
      }
    }
    return g;
  };
  const auto fresh_gather = [&](const ops::DensityGrid& grid) {
    const Field f = make_field(grid);
    Grad g(db.num_cells_total());
    for (const auto& cells : lists) {
      grid.gather_field_cells("g", p.x.data(), p.y.data(), cells, f.ex.data(),
                              f.ey.data(), -1.0f, g.x.data(), g.y.data());
    }
    return g;
  };

  const ops::DensityGrid grid(db, 64);
  std::vector<double> serial_maps;
  const Grad serial = round_trip(grid, nullptr, serial_maps);
  EXPECT_TRUE(serial == fresh_gather(ops::DensityGrid(db, 64)));
  for (int threads = 2; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    std::vector<double> maps;
    EXPECT_TRUE(round_trip(ops::DensityGrid(db, 64), &pool, maps) == serial);
    // The small fence system's pooled scatter is the serial one.
    EXPECT_EQ(std::memcmp(maps.data(), serial_maps.data(),
                          grid.num_bins() * sizeof(double)),
              0);
  }
  // `grid` still holds the entries of the serial round trip: stale now.
  move_every_7th(grid, p);
  EXPECT_TRUE(fresh_gather(grid) == fresh_gather(ops::DensityGrid(db, 64)));
}

TEST_P(DensityFootprint, FootprintsLargerThan3x3AreExact) {
  // The fixed macros and every 50th movable cell, widened past 3 bins, span
  // 4+ columns and are never cached; the rest are.
  io::GeneratorSpec spec;
  spec.num_cells = 1500;
  spec.num_nets = 1560;
  spec.seed = 29;
  db::Database db = io::generate(spec);
  const double bin_w = db.region().width() / 64;
  for (std::size_t c = 0; c < db.num_movable(); c += 50) {
    db.scale_cell_width(c, 3.5 * bin_w / db.width(c));
  }
  db.insert_fillers(3);
  const ops::DensityGrid grid(db, 64);
  std::size_t large = 0, small = 0;
  for (std::size_t c = 0; c < db.num_cells_total(); ++c) {
    if (db.kind(c) == db::CellKind::kFixed) continue;
    const bool big = db.width(c) > 3.0 * grid.bin_w() ||
                     db.height(c) > 3.0 * grid.bin_h();
    ++(big ? large : small);
  }
  ASSERT_GT(large, 0u);
  ASSERT_GT(small, 0u);

  Positions p = positions(db);
  const Field f = make_field(grid);
  (void)scatter(grid, db, p);
  const ops::DensityGrid fresh(db, 64);
  EXPECT_TRUE(gather(grid, db, p, f) == gather(fresh, db, p, f));
  move_every_7th(grid, p);
  EXPECT_TRUE(gather(grid, db, p, f) == gather(fresh, db, p, f));

  // Against a unit field the gather sums each cell's overlaps, which for a
  // cell inside the region is its area at its density scale: A·d_t for the
  // fixed macros, A for movable cells (smoothing preserves area).
  const Field unit{std::vector<double>(grid.num_bins(), 1.0),
                   std::vector<double>(grid.num_bins(), 1.0)};
  (void)scatter(grid, db, p);
  Grad g(db.num_cells_total());
  grid.gather_field("g", p.x.data(), p.y.data(), 0, db.num_physical(),
                    unit.ex.data(), unit.ey.data(), -1.0f, g.x.data(),
                    g.y.data());
  const RectD& region = db.region();
  const double min_w = std::sqrt(2.0) * grid.bin_w();
  const double min_h = std::sqrt(2.0) * grid.bin_h();
  std::size_t checked_macros = 0;
  for (std::size_t c = 0; c < db.num_physical(); ++c) {
    const bool fixed = db.kind(c) == db::CellKind::kFixed;
    const double hw = 0.5 * (fixed ? db.width(c) : std::max(db.width(c), min_w));
    const double hh =
        0.5 * (fixed ? db.height(c) : std::max(db.height(c), min_h));
    if (p.x[c] - hw < region.lx || p.x[c] + hw > region.hx ||
        p.y[c] - hh < region.ly || p.y[c] + hh > region.hy) {
      continue;
    }
    const double want = -(fixed ? db.target_density() : 1.0) * db.area(c) /
                        (grid.bin_w() * grid.bin_h());
    EXPECT_NEAR(g.x[c], want, 1e-5 * std::fabs(want)) << c;
    EXPECT_EQ(g.x[c], g.y[c]) << c;
    if (fixed && db.width(c) > 3.0 * grid.bin_w()) ++checked_macros;
  }
  EXPECT_GT(checked_macros, 0u);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

TEST_P(DensityFootprint, MapsAndGradientsMatchRecordedBits) {
  // Hashes of the D / D_fl maps and of the gathered gradients, recorded from
  // the kernels before the footprint cache existed.
  const db::Database db = make_db();
  const Positions p = positions(db);
  const ops::DensityGrid grid(db, 64);
  const std::vector<double> maps = scatter(grid, db, p);
  const Grad g = gather(grid, db, p, make_field(grid));
  const bool avx2 = GetParam() == simd::Isa::kAvx2;
  EXPECT_EQ(fnv1a(maps.data(), maps.size() * sizeof(double)),
            avx2 ? 0x534f5ceff3fec561ull : 0x258da2be8ba0362full);
  EXPECT_EQ(fnv1a(g.y.data(), g.y.size() * sizeof(float),
                  fnv1a(g.x.data(), g.x.size() * sizeof(float))),
            0xa21efe5dfeaf7510ull);
}

TEST_P(DensityFootprint, GlobalPlaceHpwlMatchesRecordedValue) {
  // GP HPWL of a small generator design, recorded from the kernels before
  // the footprint cache existed: the cache must not move a single bit. The
  // 3-thread row was re-recorded when the pooled WA kernel became bitwise
  // the serial one; it now equals the 1-thread row.
  struct Case {
    int fences, threads;
    double scalar_hpwl, avx2_hpwl;
  };
  const Case cases[] = {
      {0, 1, 71294.939258809973, 71294.946705099035},
      {0, 3, 71294.939258809973, 71294.946705099035},
      {2, 1, 94700.343352654818, 94700.318757394198},
  };
  for (const Case& k : cases) {
    SCOPED_TRACE(::testing::Message() << "fences " << k.fences << " threads "
                                      << k.threads);
    io::GeneratorSpec spec;
    spec.name = "footprint_gp";
    spec.num_cells = 1200;
    spec.num_nets = 1260;
    spec.seed = 5;
    spec.num_fences = k.fences;
    db::Database db = io::generate(spec);
    core::PlacerConfig cfg = core::PlacerConfig::xplace();
    cfg.grid_dim = 64;
    cfg.max_iters = 250;
    cfg.threads = k.threads;
    cfg.verbose = false;
    core::GlobalPlacer placer(db, cfg);
    const core::GlobalPlaceResult r = placer.run();
    EXPECT_EQ(r.hpwl, GetParam() == simd::Isa::kAvx2 ? k.avx2_hpwl
                                                      : k.scalar_hpwl);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DensityFootprint,
                         ::testing::Values(simd::Isa::kScalar,
                                           simd::Isa::kAvx2),
                         [](const auto& info) {
                           return std::string(simd::isa_name(info.param));
                         });

}  // namespace
}  // namespace xplace
