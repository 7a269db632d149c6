// Run-guardian tests: fault-plan grammar, sentinel recovery under injected
// faults, retry-budget exhaustion, the divergence best-snapshot commit, the
// checkpoint binary format, and bit-for-bit --resume.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "core/checkpoint.h"
#include "core/guardian.h"
#include "core/placer.h"
#include "io/checkpoint_io.h"
#include "io/generator.h"

namespace xplace::core {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("xplace_guardian_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  std::string path() const { return dir_.string(); }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

db::Database gp_design(std::size_t cells = 1200, std::uint64_t seed = 5) {
  io::GeneratorSpec spec;
  spec.name = "guardian_unit";
  spec.num_cells = cells;
  spec.num_nets = cells + cells / 20;
  spec.num_macros = 3;
  spec.num_io_pads = 16;
  spec.seed = seed;
  return io::generate(spec);
}

PlacerConfig fast_cfg(PlacerConfig cfg = PlacerConfig::xplace()) {
  cfg.grid_dim = 64;
  cfg.max_iters = 700;
  return cfg;
}

// ---------------- fault-plan grammar ----------------

TEST(FaultPlan, ParsesSingleEvent) {
  const FaultPlan p = FaultPlan::parse("nonfinite_grad@iter:120");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].kind, FaultEvent::Kind::kNonfiniteGrad);
  EXPECT_EQ(p.events[0].iter, 120);
}

TEST(FaultPlan, ParsesMultipleEvents) {
  const FaultPlan p =
      FaultPlan::parse("spike@iter:40,alloc_fail@iter:0,nonfinite_grad@iter:7");
  ASSERT_EQ(p.events.size(), 3u);
  EXPECT_EQ(p.events[0].kind, FaultEvent::Kind::kSpike);
  EXPECT_EQ(p.events[1].kind, FaultEvent::Kind::kAllocFail);
  EXPECT_EQ(p.events[1].iter, 0);
  EXPECT_EQ(p.events[2].iter, 7);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RejectsBadSpecs) {
  EXPECT_THROW(FaultPlan::parse("nonfinite_grad"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("meteor_strike@iter:3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spike@iter:abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spike@iter:-1"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("spike@iter:12x"), std::invalid_argument);
}

TEST(FaultPlan, FromEnvReadsXplaceFault) {
  ::setenv("XPLACE_FAULT", "spike@iter:33", 1);
  const FaultPlan p = FaultPlan::from_env();
  ::unsetenv("XPLACE_FAULT");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].kind, FaultEvent::Kind::kSpike);
  EXPECT_EQ(p.events[0].iter, 33);
  EXPECT_TRUE(FaultPlan::from_env().empty());  // unset again
}

// ---------------- sentinel classification (unit level) ----------------

TEST(Guardian, InspectClassifiesHealth) {
  db::Database db = gp_design(200, 9);
  PlacerConfig cfg = fast_cfg();
  Guardian guard(cfg, db);

  std::vector<float> gx(64, 0.5f), gy(64, -0.5f);
  EXPECT_EQ(guard.inspect(gx.data(), gy.data(), 64, 1e6), SentinelHealth::kOk);

  // Spike: magnitude leaps far above the EMA established by the OK scan.
  std::vector<float> sx(64, 1e6f), sy(64, 1e6f);
  EXPECT_EQ(guard.inspect(sx.data(), sy.data(), 64, 1e6),
            SentinelHealth::kSpike);

  gx[13] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(guard.inspect(gx.data(), gy.data(), 64, 1e6),
            SentinelHealth::kNonFinite);

  // Non-finite HPWL trips even with clean gradients.
  gx[13] = 0.0f;
  EXPECT_EQ(guard.inspect(gx.data(), gy.data(), 64,
                          std::numeric_limits<double>::infinity()),
            SentinelHealth::kNonFinite);
  EXPECT_EQ(guard.sentinel_trips(), 3);
}

// ---------------- end-to-end fault recovery ----------------

// Shared baseline so the recovery tests compare against one fault-free run.
double fault_free_hpwl() {
  static const double hpwl = [] {
    db::Database db = gp_design();
    GlobalPlacer placer(db, fast_cfg());
    return placer.run().hpwl;
  }();
  return hpwl;
}

TEST(GuardianRecovery, NonfiniteGradFault) {
  db::Database db = gp_design();
  GlobalPlacer placer(db, fast_cfg());
  placer.guardian().set_fault_plan(FaultPlan::parse("nonfinite_grad@iter:120"));
  const GlobalPlaceResult res = placer.run();

  EXPECT_EQ(placer.guardian().faults_injected(), 1);
  EXPECT_GE(res.sentinel_trips, 1);
  EXPECT_GE(res.rollbacks, 1);
  EXPECT_FALSE(res.diverged);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.stop_reason, StopReason::kConverged);
  EXPECT_TRUE(std::isfinite(res.hpwl));
  // Acceptance: recovered run finishes within 5% of the fault-free HPWL.
  EXPECT_NEAR(res.hpwl, fault_free_hpwl(), 0.05 * fault_free_hpwl());
}

TEST(GuardianRecovery, SpikeFault) {
  db::Database db = gp_design();
  GlobalPlacer placer(db, fast_cfg());
  placer.guardian().set_fault_plan(FaultPlan::parse("spike@iter:120"));
  const GlobalPlaceResult res = placer.run();

  EXPECT_GE(res.sentinel_trips, 1);
  EXPECT_GE(res.rollbacks, 1);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.hpwl, fault_free_hpwl(), 0.05 * fault_free_hpwl());
}

TEST(GuardianRecovery, AllocFailKeepsPreviousSnapshotAndFinishes) {
  db::Database db = gp_design();
  GlobalPlacer placer(db, fast_cfg());
  placer.guardian().set_fault_plan(FaultPlan::parse("alloc_fail@iter:0"));
  const GlobalPlaceResult res = placer.run();

  EXPECT_EQ(placer.guardian().faults_injected(), 1);
  EXPECT_EQ(res.rollbacks, 0);  // alloc failure is absorbed, not a trip
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(placer.guardian().has_snapshot());  // a later capture succeeded
  EXPECT_NEAR(res.hpwl, fault_free_hpwl(), 0.05 * fault_free_hpwl());
}

TEST(GuardianRecovery, RetryBudgetExhaustionStopsGracefully) {
  db::Database db = gp_design();
  PlacerConfig cfg = fast_cfg();
  cfg.guardian_max_rollbacks = 2;
  GlobalPlacer placer(db, cfg);
  // More consecutive faults than the budget allows.
  placer.guardian().set_fault_plan(FaultPlan::parse(
      "nonfinite_grad@iter:60,nonfinite_grad@iter:61,nonfinite_grad@iter:62,"
      "nonfinite_grad@iter:63"));
  const GlobalPlaceResult res = placer.run();

  EXPECT_TRUE(res.diverged);
  EXPECT_EQ(res.stop_reason, StopReason::kDiverged);
  EXPECT_EQ(res.rollbacks, 3);  // budget 2 → third rollback call reports false
  EXPECT_FALSE(res.converged);
  // Graceful stop: committed positions are the best-known iterate, finite.
  EXPECT_TRUE(std::isfinite(res.hpwl));
  EXPECT_GT(res.hpwl, 0.0);
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    ASSERT_TRUE(std::isfinite(db.x(c)) && std::isfinite(db.y(c))) << c;
  }
}

// Satellite (a) regression: a divergent stop must commit the best-HPWL
// snapshot, not the diverged iterate, and must report diverged = true.
TEST(GuardianRecovery, DivergentStopCommitsBestSnapshot) {
  db::Database db = gp_design();
  PlacerConfig cfg = fast_cfg();
  // HPWL grows as the placement spreads from its center init, so a ratio
  // this tight trips the divergence check right after the grace period.
  cfg.divergence_hpwl_ratio = 1.01;
  cfg.guardian_max_rollbacks = 0;  // first trip exhausts the budget
  GlobalPlacer placer(db, cfg);
  const GlobalPlaceResult res = placer.run();

  EXPECT_TRUE(res.diverged);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.stop_reason, StopReason::kDiverged);
  EXPECT_GE(res.rollbacks, 1);
  ASSERT_TRUE(placer.guardian().has_snapshot());
  // The committed database is the snapshot's iterate: its exact HPWL must be
  // far below the diverged trajectory's and finite.
  EXPECT_TRUE(std::isfinite(res.hpwl));
  EXPECT_GT(res.hpwl, 0.0);
}

TEST(GuardianRecovery, EnvVarArmsInjection) {
  ::setenv("XPLACE_FAULT", "spike@iter:120", 1);
  db::Database db = gp_design();
  GlobalPlacer placer(db, fast_cfg());
  ::unsetenv("XPLACE_FAULT");
  const GlobalPlaceResult res = placer.run();
  EXPECT_EQ(placer.guardian().faults_injected(), 1);
  EXPECT_GE(res.rollbacks, 1);
  EXPECT_TRUE(res.converged);
}

TEST(Guardian, DisabledGuardianStillStopsOnDivergence) {
  db::Database db = gp_design();
  PlacerConfig cfg = fast_cfg();
  cfg.guardian = false;
  cfg.divergence_hpwl_ratio = 1.01;
  GlobalPlacer placer(db, cfg);
  const GlobalPlaceResult res = placer.run();
  EXPECT_TRUE(res.diverged);
  EXPECT_EQ(res.rollbacks, 0);
}

// ---------------- checkpoint format ----------------

RunCheckpoint sample_checkpoint() {
  RunCheckpoint ck;
  ck.design = "unit";
  ck.n_total = 5;
  ck.n_movable = 3;
  ck.optimizer_kind = 0;
  ck.next_iter = 42;
  ck.gamma = 3.25;
  ck.overflow = 0.375;
  ck.best_hpwl = 123456.5;
  ck.hpwl = 123999.25;
  ck.optimizer.put_array("u_x", {1.0f, 2.0f, 3.0f, 4.0f, 5.0f});
  ck.optimizer.put_scalar("a_k", 1.625);
  ck.scheduler.put_scalar("lambda", 2e-4);
  ck.engine.put_array("dgrad_x", {0.5f, -0.5f});
  return ck;
}

TEST(CheckpointIO, RoundTripPreservesEverything) {
  TempDir tmp;
  const std::string path = tmp.path() + "/run.xpck";
  const RunCheckpoint ck = sample_checkpoint();
  io::write_checkpoint(ck, path);
  const RunCheckpoint back = io::read_checkpoint(path);

  EXPECT_EQ(back.design, "unit");
  EXPECT_EQ(back.n_total, 5u);
  EXPECT_EQ(back.n_movable, 3u);
  EXPECT_EQ(back.next_iter, 42);
  EXPECT_DOUBLE_EQ(back.gamma, 3.25);
  EXPECT_DOUBLE_EQ(back.overflow, 0.375);
  EXPECT_DOUBLE_EQ(back.best_hpwl, 123456.5);
  EXPECT_DOUBLE_EQ(back.hpwl, 123999.25);
  EXPECT_EQ(back.optimizer.array("u_x"),
            (std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f, 5.0f}));
  EXPECT_DOUBLE_EQ(back.optimizer.scalar("a_k"), 1.625);
  EXPECT_DOUBLE_EQ(back.scheduler.scalar("lambda"), 2e-4);
  EXPECT_EQ(back.engine.array("dgrad_x"), (std::vector<float>{0.5f, -0.5f}));
  EXPECT_THROW(back.optimizer.array("missing"), std::runtime_error);
  EXPECT_THROW(back.optimizer.scalar("missing"), std::runtime_error);
}

TEST(CheckpointIO, MissingFileThrows) {
  EXPECT_THROW(io::read_checkpoint("/nonexistent/dir/run.xpck"),
               std::runtime_error);
}

TEST(CheckpointIO, TruncatedFileThrows) {
  TempDir tmp;
  const std::string path = tmp.path() + "/run.xpck";
  io::write_checkpoint(sample_checkpoint(), path);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  try {
    io::read_checkpoint(path);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

TEST(CheckpointIO, HugeArrayCountIsTruncationNotAllocation) {
  // A well-formed header whose first optimizer array claims 2^62 floats.
  // `count * sizeof(float)` wraps to 0, so a size check by multiplication
  // passes it and the reader asks for an impossible vector; the file must be
  // rejected as truncated before anything is allocated.
  TempDir tmp;
  const std::string path = tmp.path() + "/run.xpck";
  std::string bytes;
  const auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint32_t{0x4B435058});  // "XPCK"
  put(RunCheckpoint::kVersion);
  put(std::uint32_t{4});
  bytes += "unit";
  put(std::uint64_t{5});
  put(std::uint64_t{3});
  put(std::int32_t{0});
  put(std::int32_t{42});
  for (int i = 0; i < 4; ++i) put(1.0);
  put(std::uint32_t{1});  // one optimizer array ...
  put(std::uint32_t{1});
  bytes += "x";
  put(std::uint64_t{1} << 62);  // ... of 2^62 floats
  bytes.append(16, '\0');
  std::ofstream(path, std::ios::binary) << bytes;
  try {
    io::read_checkpoint(path);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ": truncated checkpoint"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointIO, BadMagicThrows) {
  TempDir tmp;
  const std::string path = tmp.path() + "/run.xpck";
  std::ofstream(path, std::ios::binary) << "definitely not a checkpoint file";
  try {
    io::read_checkpoint(path);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointIO, CorruptedPayloadFailsChecksum) {
  TempDir tmp;
  const std::string path = tmp.path() + "/run.xpck";
  io::write_checkpoint(sample_checkpoint(), path);
  // Flip one payload byte (past the header, before the trailing checksum).
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(24);
  char b = 0;
  f.seekg(24);
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x5a);
  f.seekp(24);
  f.write(&b, 1);
  f.close();
  try {
    io::read_checkpoint(path);
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

// ---------------- resume (bit-for-bit) ----------------

TEST(Resume, KilledRunResumesBitForBit) {
  TempDir tmp;
  const std::string ck_path = tmp.path() + "/gp.xpck";

  // Uninterrupted reference: exactly 120 iterations (stop_overflow 0 keeps
  // the loop from converging early).
  PlacerConfig full = fast_cfg();
  full.max_iters = 120;
  full.stop_overflow = 0.0;
  db::Database db_a = gp_design();
  GlobalPlacer placer_a(db_a, full);
  const GlobalPlaceResult res_a = placer_a.run();
  ASSERT_EQ(res_a.iterations, 120);

  // "Killed" run: same config but stops at 60, checkpointing every 50 iters
  // (one checkpoint lands at next_iter = 50).
  PlacerConfig half = full;
  half.max_iters = 60;
  half.checkpoint_out = ck_path;
  half.checkpoint_period = 50;
  db::Database db_b = gp_design();
  GlobalPlacer placer_b(db_b, half);
  placer_b.run();
  ASSERT_TRUE(fs::exists(ck_path));

  // Restarted run: fresh database + --resume, same horizon as the reference.
  PlacerConfig resumed = full;
  resumed.resume_path = ck_path;
  db::Database db_c = gp_design();
  GlobalPlacer placer_c(db_c, resumed);
  const GlobalPlaceResult res_c = placer_c.run();

  EXPECT_EQ(res_c.iterations, 120);
  // Bit-for-bit: the resumed trajectory is the uninterrupted one.
  EXPECT_DOUBLE_EQ(res_c.hpwl, res_a.hpwl);
  EXPECT_DOUBLE_EQ(res_c.overflow, res_a.overflow);
  for (std::size_t c = 0; c < db_a.num_movable(); c += 37) {
    EXPECT_EQ(db_a.x(c), db_c.x(c)) << "cell " << c;
    EXPECT_EQ(db_a.y(c), db_c.y(c)) << "cell " << c;
  }
}

TEST(Resume, MismatchedDesignRejected) {
  TempDir tmp;
  const std::string ck_path = tmp.path() + "/gp.xpck";

  PlacerConfig cfg = fast_cfg();
  cfg.max_iters = 12;
  cfg.stop_overflow = 0.0;
  cfg.checkpoint_out = ck_path;
  cfg.checkpoint_period = 10;
  db::Database db_a = gp_design(1200, 5);
  GlobalPlacer placer_a(db_a, cfg);
  placer_a.run();
  ASSERT_TRUE(fs::exists(ck_path));

  PlacerConfig resumed = fast_cfg();
  resumed.resume_path = ck_path;
  db::Database db_b = gp_design(600, 5);  // different design size
  GlobalPlacer placer_b(db_b, resumed);
  EXPECT_THROW(placer_b.run(), std::runtime_error);
}

}  // namespace
}  // namespace xplace::core
