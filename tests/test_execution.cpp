// Tests for the pluggable execution backend: ThreadPool edge cases and
// exception propagation, ExecutionContext selection/publishing, bitwise
// parallel 2-D transforms, serial-vs-threaded GP parity and run-to-run
// determinism, LG/DP results that do not depend on the thread count, and
// guardian recovery on the threaded backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/placer.h"
#include "dp/detailed_placer.h"
#include "dp/local_reorder.h"
#include "fft/dct.h"
#include "io/generator.h"
#include "lg/abacus.h"
#include "telemetry/metrics.h"
#include "util/execution.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace xplace {
namespace {

db::Database make_db(std::size_t cells = 600, std::uint64_t seed = 17) {
  io::GeneratorSpec spec;
  spec.name = "exec_unit";
  spec.num_cells = cells;
  spec.num_nets = cells + cells / 10;
  spec.seed = seed;
  return io::generate(spec);
}

core::PlacerConfig small_cfg(int threads) {
  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = 64;
  cfg.max_iters = 80;
  cfg.threads = threads;
  return cfg;
}

// ---------------- ThreadPool edge cases ----------------

TEST(ThreadPoolEdge, SingleThreadPoolDegeneratesToPlainLoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(100, 0);
  std::size_t max_worker = 0;
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e,
                                     std::size_t worker) {
    max_worker = std::max(max_worker, worker);
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  EXPECT_EQ(max_worker, 0u);  // caller thread only
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolEdge, ZeroThreadsMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolEdge, EmptyRangeIsANoop) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolEdge, EveryIndexVisitedOnceWithGrainOne) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(
      hits.size(),
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
      },
      /*grain=*/1);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolEdge, ExceptionPropagatesAndPoolStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(
          1000,
          [&](std::size_t b, std::size_t, std::size_t) {
            if (b == 0) throw std::runtime_error("kernel fault");
          },
          /*grain=*/64),
      std::runtime_error);
  // The pool must have quiesced and remain fully usable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(256, [&](std::size_t b, std::size_t e, std::size_t) {
    sum.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(sum.load(), 256);
}

TEST(ThreadPoolEdge, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<int> inner_sum(8, 0);
  pool.parallel_for(
      inner_sum.size(),
      [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) {
          // A kernel calling back into its own pool must degrade to an inline
          // serial loop (there is one task slot), not deadlock on the worker
          // it occupies.
          pool.parallel_for(
              100, [&](std::size_t ib, std::size_t ie, std::size_t) {
                inner_sum[i] += static_cast<int>(ie - ib);
              });
        }
      },
      /*grain=*/1);
  for (int s : inner_sum) EXPECT_EQ(s, 100);
}

TEST(ThreadPoolEdge, ConcurrentExternalDispatchFallsBackInline) {
  // Two flow threads hammering one pool: whichever loses the dispatch race
  // must run its range inline rather than corrupt the shared task slot.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4000);
  for (auto& h : hits) h.store(0);
  auto drive = [&](std::size_t offset) {
    for (int rep = 0; rep < 50; ++rep) {
      pool.parallel_for(2000, [&](std::size_t b, std::size_t e, std::size_t) {
        for (std::size_t i = b; i < e; ++i) hits[offset + i].fetch_add(1);
      });
    }
  };
  std::thread other([&] { drive(2000); });
  drive(0);
  other.join();
  for (auto& h : hits) EXPECT_EQ(h.load(), 50);
}

TEST(ThreadPoolEdge, StatsAccumulateAcrossDispatches) {
  ThreadPool pool(2);
  const auto before = pool.stats();
  pool.parallel_for(10000, [](std::size_t, std::size_t, std::size_t) {});
  pool.parallel_for(10000, [](std::size_t, std::size_t, std::size_t) {});
  const auto after = pool.stats();
  EXPECT_EQ(after.dispatches, before.dispatches + 2);
  EXPECT_GE(after.wall_seconds, before.wall_seconds);
}

// ---------------- ExecutionContext ----------------

TEST(ExecutionContextTest, FromThreadsSelectsBackends) {
  const ExecutionContext serial = ExecutionContext::from_threads(1);
  EXPECT_EQ(serial.backend(), ExecBackend::kSerial);
  EXPECT_FALSE(serial.parallel());
  EXPECT_EQ(serial.threads(), 1u);
  EXPECT_EQ(serial.pool(), nullptr);

  const ExecutionContext threaded = ExecutionContext::from_threads(3);
  EXPECT_EQ(threaded.backend(), ExecBackend::kThreadPool);
  EXPECT_TRUE(threaded.parallel());
  EXPECT_EQ(threaded.threads(), 3u);
  ASSERT_NE(threaded.pool(), nullptr);

  const ExecutionContext hw = ExecutionContext::from_threads(-1);
  EXPECT_GE(hw.threads(), 1u);
}

TEST(ExecutionContextTest, ZeroThreadsDefersToEnv) {
  const char* saved = std::getenv("XPLACE_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("XPLACE_THREADS");
  const ExecutionContext ctx = ExecutionContext::from_threads(0);
  EXPECT_EQ(ctx.backend(), ExecBackend::kSerial);
  if (saved != nullptr) ::setenv("XPLACE_THREADS", saved_value.c_str(), 1);
}

TEST(ExecutionContextTest, PublishExportsBackendAndPoolStats) {
  telemetry::Registry reg;
  ExecutionContext ctx = ExecutionContext::from_threads(2);
  ctx.pool()->parallel_for(4096, [](std::size_t, std::size_t, std::size_t) {});
  ctx.publish(reg);
  EXPECT_DOUBLE_EQ(reg.gauge("exec.threads").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("exec.backend").value(), 1.0);
  EXPECT_GE(reg.counter("exec.pool.dispatches").value(), 1u);
  EXPECT_GE(reg.gauge("exec.pool.wall_seconds").value(), 0.0);
}

// ---------------- pooled 2-D transforms ----------------

TEST(PooledDct, TwoDTransformsBitwiseMatchSerialForAnyWorkerCount) {
  constexpr std::size_t kRows = 64, kCols = 64;
  Rng rng(99);
  std::vector<double> base(kRows * kCols);
  for (double& v : base) v = rng.uniform(-2.0, 2.0);

  using Transform2D = void (*)(double*, std::size_t, std::size_t, ThreadPool*);
  const Transform2D transforms[] = {&fft::dct2, &fft::idct2, &fft::idxst_idct,
                                    &fft::idct_idxst};
  for (Transform2D t : transforms) {
    std::vector<double> serial = base;
    t(serial.data(), kRows, kCols, nullptr);
    for (std::size_t workers : {2u, 3u, 5u}) {
      ThreadPool pool(workers);
      std::vector<double> pooled = base;
      t(pooled.data(), kRows, kCols, &pool);
      for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(pooled[i], serial[i]) << "index " << i << " with "
                                        << workers << " workers";
      }
    }
  }
}

// ---------------- GP parity + determinism ----------------

TEST(ExecutionGP, ThreadedRunIsDeterministicForFixedThreadCount) {
  std::vector<double> x1, x2;
  for (int run = 0; run < 2; ++run) {
    db::Database db = make_db();
    core::GlobalPlacer placer(db, small_cfg(/*threads=*/4));
    placer.run();
    auto& out = run == 0 ? x1 : x2;
    for (std::size_t c = 0; c < db.num_movable(); ++c) {
      out.push_back(db.x(c));
      out.push_back(db.y(c));
    }
  }
  ASSERT_EQ(x1.size(), x2.size());
  for (std::size_t i = 0; i < x1.size(); ++i) {
    ASSERT_EQ(x1[i], x2[i]) << "position " << i;
  }
}

TEST(ExecutionGP, ThreadedMatchesSerialWithinFloatTolerance) {
  core::PlacerConfig cfg_s = small_cfg(/*threads=*/1);
  cfg_s.max_iters = 400;  // let both runs anneal to comparable solutions
  db::Database db_s = make_db();
  core::GlobalPlacer serial(db_s, cfg_s);
  const core::GlobalPlaceResult rs = serial.run();

  core::PlacerConfig cfg_p = cfg_s;
  cfg_p.threads = 4;
  db::Database db_p = make_db();
  core::GlobalPlacer threaded(db_p, cfg_p);
  const core::GlobalPlaceResult rp = threaded.run();

  EXPECT_TRUE(std::isfinite(rp.hpwl));
  // Float accumulation order differs between the backends, and the GP
  // trajectory amplifies it; the runs must still land on equivalent
  // solutions.
  EXPECT_NEAR(rp.hpwl, rs.hpwl, 0.10 * rs.hpwl);
  EXPECT_NEAR(rp.overflow, rs.overflow, 0.05);
}

TEST(ExecutionGP, SerialBackendBitwiseMatchesDefaultConfig) {
  // threads=1 must be the exact historical serial flow: identical to a
  // config that never mentions the execution backend (threads=0, env unset).
  const char* saved = std::getenv("XPLACE_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::unsetenv("XPLACE_THREADS");

  db::Database db_a = make_db();
  core::GlobalPlacer pa(db_a, small_cfg(/*threads=*/1));
  pa.run();
  db::Database db_b = make_db();
  core::GlobalPlacer pb(db_b, small_cfg(/*threads=*/0));
  pb.run();

  for (std::size_t c = 0; c < db_a.num_movable(); ++c) {
    ASSERT_EQ(db_a.x(c), db_b.x(c)) << c;
    ASSERT_EQ(db_a.y(c), db_b.y(c)) << c;
  }
  if (saved != nullptr) ::setenv("XPLACE_THREADS", saved_value.c_str(), 1);
}

// ---------------- LG + DP: one serial algorithm ----------------

TEST(ExecutionFlow, LgDpBitwiseAcrossThreadCounts) {
  // LG and DP run the same serial passes whatever context the caller hands
  // in, so from one GP placement the legalized and detailed placements are
  // bitwise equal with no context and at 1-4 threads.
  db::Database gp_db = make_db(800, 23);
  core::GlobalPlacer placer(gp_db, small_cfg(/*threads=*/1));
  placer.run();

  std::vector<double> ref_pos;
  double ref_hpwl = 0.0;
  for (int threads = 0; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    db::Database db = gp_db;
    const ExecutionContext exec = ExecutionContext::from_threads(threads);
    const ExecutionContext* ctx = threads == 0 ? nullptr : &exec;
    lg::abacus_legalize(db, ctx);
    const dp::DetailedPlaceResult res = dp::detailed_place(db, {}, ctx);
    std::vector<double> pos;
    for (std::size_t c = 0; c < db.num_movable(); ++c) {
      pos.push_back(db.x(c));
      pos.push_back(db.y(c));
    }
    if (threads == 0) {
      ref_pos = pos;
      ref_hpwl = res.hpwl_after;
      continue;
    }
    EXPECT_EQ(std::memcmp(&res.hpwl_after, &ref_hpwl, sizeof(double)), 0);
    ASSERT_EQ(pos.size(), ref_pos.size());
    EXPECT_EQ(std::memcmp(pos.data(), ref_pos.data(),
                          pos.size() * sizeof(double)),
              0);
  }
}

TEST(ExecutionLG, AbacusParallelBitwiseMatchesSerial) {
  // A 4-thread context must not change a single legalized coordinate.
  db::Database db_s = make_db(800, 23);
  db::Database db_p = make_db(800, 23);

  lg::abacus_legalize(db_s);
  const ExecutionContext exec = ExecutionContext::from_threads(4);
  lg::abacus_legalize(db_p, &exec);

  for (std::size_t c = 0; c < db_s.num_movable(); ++c) {
    ASSERT_EQ(db_p.x(c), db_s.x(c)) << "cell " << c;
    ASSERT_EQ(db_p.y(c), db_s.y(c)) << "cell " << c;
  }
}

TEST(ExecutionDP, LocalReorderDeterministicAcrossWorkerCounts) {
  // Same legalized start, reordered under 2 and 4 workers: the pass is the
  // serial row sweep either way, so it never raises HPWL and the outcome is
  // independent of the worker count.
  std::vector<double> pos2, pos4;
  for (int workers : {2, 4}) {
    db::Database db = make_db(800, 23);
    lg::abacus_legalize(db);
    const ExecutionContext exec = ExecutionContext::from_threads(workers);
    const dp::PassStats stats = dp::local_reorder_pass(db, 3, &exec);
    EXPECT_LE(stats.hpwl_after, stats.hpwl_before + 1e-9);
    auto& out = workers == 2 ? pos2 : pos4;
    for (std::size_t c = 0; c < db.num_movable(); ++c) {
      out.push_back(db.x(c));
      out.push_back(db.y(c));
    }
  }
  ASSERT_EQ(pos2.size(), pos4.size());
  for (std::size_t i = 0; i < pos2.size(); ++i) {
    ASSERT_EQ(pos2[i], pos4[i]) << "position " << i;
  }
}

TEST(ExecutionDP, LocalReorderSerialPathUnchangedWithNullExec) {
  db::Database db_a = make_db(800, 23);
  lg::abacus_legalize(db_a);
  db::Database db_b = make_db(800, 23);
  lg::abacus_legalize(db_b);

  const dp::PassStats sa = dp::local_reorder_pass(db_a, 3);
  const dp::PassStats sb = dp::local_reorder_pass(db_b, 3, nullptr);
  EXPECT_EQ(sa.moves_accepted, sb.moves_accepted);
  for (std::size_t c = 0; c < db_a.num_movable(); ++c) {
    ASSERT_EQ(db_a.x(c), db_b.x(c)) << c;
  }
}

// ---------------- guardian under the pool ----------------

TEST(ExecutionGuardian, FaultInjectionRecoversOnThreadedBackend) {
  db::Database db = make_db();
  core::PlacerConfig cfg = small_cfg(/*threads=*/4);
  cfg.max_iters = 300;
  core::GlobalPlacer placer(db, cfg);
  placer.guardian().set_fault_plan(
      core::FaultPlan::parse("nonfinite_grad@iter:30,spike@iter:60"));
  const core::GlobalPlaceResult res = placer.run();

  // At least the iter-30 fault fires even if the run converges early.
  EXPECT_GE(placer.guardian().faults_injected(), 1);
  EXPECT_GE(res.sentinel_trips, 1);
  EXPECT_GE(res.rollbacks, 1);
  EXPECT_TRUE(std::isfinite(res.hpwl));
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    ASSERT_TRUE(std::isfinite(db.x(c)) && std::isfinite(db.y(c))) << c;
  }
}

}  // namespace
}  // namespace xplace
