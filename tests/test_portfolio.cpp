// Portfolio-runner subsystem tests (DESIGN.md §14, §16): deterministic plan
// generation, the laggard-racing policy in isolation, end-to-end K-way
// portfolios (raced batches) on an in-process PlacementServer (winner
// determinism, early kill), crash-restart recovery from a fabricated journal,
// batch-cancel, the shared batch/portfolio id space and verb aliases over the
// socket, the hill-climb kick's never-worse guarantee, and the protocol/codec
// round-trips for the portfolio verbs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/placer.h"
#include "io/generator.h"
#include "io/journal.h"
#include "opt/portfolio.h"
#include "server/protocol.h"
#include "server/recovery.h"
#include "server/server.h"
#include "server/uds.h"

namespace xplace::server {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() /
                 ("xplace_portfolio_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(::getpid())));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Plan generation (src/opt/portfolio.*)
// ---------------------------------------------------------------------------

TEST(PortfolioPlan, DeterministicFromKAndSeed) {
  const auto a = opt::make_portfolio_plan(5, 7);
  const auto b = opt::make_portfolio_plan(5, 7);
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 5u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << i;
    EXPECT_EQ(a[i].init_noise_scale, b[i].init_noise_scale) << i;  // bitwise
    EXPECT_EQ(a[i].gamma_scale, b[i].gamma_scale) << i;
    EXPECT_EQ(a[i].lambda_scale, b[i].lambda_scale) << i;
    EXPECT_EQ(a[i].label, b[i].label) << i;
  }
}

TEST(PortfolioPlan, VariantZeroIsUnperturbedBaseline) {
  const auto plan = opt::make_portfolio_plan(4, 9);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0].seed, 9u);
  EXPECT_EQ(plan[0].init_noise_scale, 1.0);
  EXPECT_EQ(plan[0].gamma_scale, 1.0);
  EXPECT_EQ(plan[0].lambda_scale, 1.0);
  EXPECT_EQ(plan[0].label, "v0");
  // Challengers: distinct seeds, perturbations inside the documented ranges.
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_NE(plan[i].seed, plan[0].seed) << i;
    for (std::size_t j = 1; j < i; ++j) EXPECT_NE(plan[i].seed, plan[j].seed);
    EXPECT_GE(plan[i].init_noise_scale, 0.5) << i;
    EXPECT_LE(plan[i].init_noise_scale, 8.0) << i;
    EXPECT_GE(plan[i].gamma_scale, 0.7) << i;
    EXPECT_LE(plan[i].gamma_scale, 1.4) << i;
    EXPECT_GE(plan[i].lambda_scale, 0.5) << i;
    EXPECT_LE(plan[i].lambda_scale, 2.0) << i;
  }
}

TEST(PortfolioPlan, DifferentSeedsGiveDifferentPlans) {
  const auto a = opt::make_portfolio_plan(4, 1);
  const auto b = opt::make_portfolio_plan(4, 2);
  bool any_diff = false;
  for (std::size_t i = 1; i < 4; ++i) {
    if (a[i].init_noise_scale != b[i].init_noise_scale ||
        a[i].gamma_scale != b[i].gamma_scale) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(PortfolioPlan, ApplyVariantScalesConfigKnobs) {
  core::PlacerConfig base;
  opt::PerturbationVariant v;
  v.seed = 42;
  v.init_noise_scale = 2.0;
  v.gamma_scale = 0.5;
  v.lambda_scale = 4.0;
  const core::PlacerConfig out = opt::apply_variant(base, v);
  EXPECT_EQ(out.seed, 42u);
  EXPECT_DOUBLE_EQ(out.center_init_noise, base.center_init_noise * 2.0);
  EXPECT_DOUBLE_EQ(out.gamma_base_factor, base.gamma_base_factor * 0.5);
  EXPECT_DOUBLE_EQ(out.lambda_init_factor, base.lambda_init_factor * 4.0);
}

// ---------------------------------------------------------------------------
// Racing policy (src/server/portfolio_racer.*)
// ---------------------------------------------------------------------------

MemberProgress member(std::uint64_t id, int iter, double hpwl,
                      double overflow) {
  MemberProgress m;
  m.id = id;
  m.has_progress = true;
  m.iter = iter;
  m.hpwl = hpwl;
  m.overflow = overflow;
  return m;
}

TEST(PortfolioRacer, KillsStrictLaggardOnly) {
  RacePolicy p;
  p.min_iter = 10;
  // Leader: id 1. Member 2 is behind on BOTH metrics -> laggard. Member 3 is
  // behind on HPWL but ahead on overflow -> spared (not a *strict* laggard).
  const std::vector<MemberProgress> ms = {
      member(1, 50, 100.0, 0.30),
      member(2, 50, 100.0 * 1.20, 0.30 + 0.10),
      member(3, 50, 100.0 * 1.20, 0.10),
  };
  const auto kills = laggards_to_kill(ms, p);
  ASSERT_EQ(kills.size(), 1u);
  EXPECT_EQ(kills[0], 2u);
}

TEST(PortfolioRacer, LeaderNeverKilledAndGraceRespected) {
  RacePolicy p;
  p.min_iter = 100;
  // Worse member is still inside its grace window -> nobody dies.
  const std::vector<MemberProgress> ms = {
      member(1, 150, 100.0, 0.20),
      member(2, 50, 500.0, 0.90),
  };
  EXPECT_TRUE(laggards_to_kill(ms, p).empty());
}

TEST(PortfolioRacer, MinSurvivorsFloorHolds) {
  RacePolicy p;
  p.min_iter = 1;
  p.min_survivors = 2;
  const std::vector<MemberProgress> ms = {
      member(1, 50, 100.0, 0.10),
      member(2, 50, 400.0, 0.90),
      member(3, 50, 300.0, 0.80),
  };
  // Both 2 and 3 qualify as laggards; the floor keeps one of them alive and
  // the worst (highest HPWL) dies first.
  const auto kills = laggards_to_kill(ms, p);
  ASSERT_EQ(kills.size(), 1u);
  EXPECT_EQ(kills[0], 2u);
}

TEST(PortfolioRacer, NoProgressAndTerminalMembersSpared) {
  RacePolicy p;
  p.min_iter = 1;
  MemberProgress queued;  // no events yet: still queued
  queued.id = 4;
  MemberProgress done = member(5, 90, 900.0, 0.95);
  done.terminal = true;
  const std::vector<MemberProgress> ms = {
      member(1, 50, 100.0, 0.10), queued, done};
  EXPECT_TRUE(laggards_to_kill(ms, p).empty());
}

TEST(PortfolioRacer, NoKillDisablesRacing) {
  RacePolicy p;
  p.min_iter = 1;
  p.no_kill = true;
  const std::vector<MemberProgress> ms = {
      member(1, 50, 100.0, 0.10),
      member(2, 50, 900.0, 0.95),
  };
  EXPECT_TRUE(laggards_to_kill(ms, p).empty());
}

// ---------------------------------------------------------------------------
// End-to-end portfolios on an in-process server
// ---------------------------------------------------------------------------

JobSpec portfolio_base(std::uint64_t design, int iters = 40) {
  JobSpec base;
  base.design_hash = design;
  base.max_iters = iters;
  base.grid = 32;
  base.seed = 1;
  base.full_flow = false;
  return base;
}

TEST(ServerPortfolio, DeterministicWinnerAcrossServers) {
  auto run_once = [](std::uint64_t* winner, double* winner_hpwl,
                     std::size_t* parses) {
    ServerConfig cfg;
    cfg.max_concurrency = 2;
    cfg.portfolio_poll_s = -1.0;  // racer disabled: pure race-free baseline
    PlacementServer srv(cfg);
    JobSpec src;
    src.demo_cells = 200;
    src.demo_seed = 3;
    const auto up = srv.upload_design(src);
    ASSERT_TRUE(up.ok) << up.error;
    RacePolicy no_kill;
    no_kill.no_kill = true;
    const auto out =
        srv.submit_portfolio(portfolio_base(up.hash), 3, 0.0, no_kill);
    ASSERT_TRUE(out.ok) << out.error;
    ASSERT_EQ(out.jobs.size(), 3u);
    const auto st = srv.batch_wait(out.batch_id, 300.0);
    ASSERT_TRUE(st.has_value());
    ASSERT_TRUE(st->all_terminal);
    EXPECT_EQ(st->done, 3u);
    ASSERT_NE(st->best_job, 0u);
    *winner = st->best_job;
    *winner_hpwl = st->best_hpwl;
    *parses = srv.stats().design_parses;
    // The winner is the min-HPWL done member, and never worse than the
    // unperturbed baseline (member v0 = jobs[0]).
    const auto v0 = srv.status(out.jobs[0].id);
    ASSERT_TRUE(v0.has_value());
    EXPECT_LE(st->best_hpwl, v0->hpwl);
    srv.shutdown(/*drain=*/false);
  };
  std::uint64_t w1 = 0, w2 = 0;
  double h1 = 0.0, h2 = 0.0;
  std::size_t p1 = 0, p2 = 0;
  run_once(&w1, &h1, &p1);
  run_once(&w2, &h2, &p2);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(h1, h2);  // bitwise
  // One parse served each whole portfolio.
  EXPECT_EQ(p1, 1u);
  EXPECT_EQ(p2, 1u);
}

TEST(ServerPortfolio, VariantsAreDistinctUnderDedup) {
  // Two portfolios of the same (design, k, seed) dedup member-for-member;
  // the perturbation scales keep the K members themselves distinct configs.
  ServerConfig cfg;
  cfg.max_concurrency = 2;
  cfg.portfolio_poll_s = -1.0;
  PlacementServer srv(cfg);
  JobSpec src;
  src.demo_cells = 160;
  src.demo_seed = 4;
  const auto up = srv.upload_design(src);
  ASSERT_TRUE(up.ok) << up.error;
  RacePolicy no_kill;
  no_kill.no_kill = true;
  const auto a =
      srv.submit_portfolio(portfolio_base(up.hash, 25), 3, 0.0, no_kill);
  ASSERT_TRUE(a.ok) << a.error;
  // K distinct member jobs (no intra-portfolio dedup).
  EXPECT_NE(a.jobs[0].id, a.jobs[1].id);
  EXPECT_NE(a.jobs[1].id, a.jobs[2].id);
  ASSERT_TRUE(srv.batch_wait(a.batch_id, 300.0)->all_terminal);

  const auto b =
      srv.submit_portfolio(portfolio_base(up.hash, 25), 3, 0.0, no_kill);
  ASSERT_TRUE(b.ok) << b.error;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(b.jobs[i].deduped) << i;
    EXPECT_EQ(b.jobs[i].id, a.jobs[i].id) << i;
  }
  EXPECT_EQ(srv.stats().design_parses, 1u);
  srv.shutdown(/*drain=*/false);
}

TEST(ServerPortfolio, EarlyKillCommitsLosersBestSnapshot) {
  // Aggressive policy: any member strictly behind the leader's HPWL dies as
  // soon as it clears a 3-iteration grace window. Long max_iters guarantee
  // the members are still mid-flight when the racer first samples.
  ServerConfig cfg;
  cfg.max_concurrency = 2;
  cfg.portfolio_poll_s = 0.02;
  PlacementServer srv(cfg);
  JobSpec src;
  src.demo_cells = 1200;
  src.demo_seed = 3;
  const auto up = srv.upload_design(src);
  ASSERT_TRUE(up.ok) << up.error;
  RacePolicy aggressive;
  aggressive.min_iter = 3;
  aggressive.hpwl_margin = 1.0;       // strictly worse HPWL qualifies...
  aggressive.overflow_slack = -10.0;  // ...and overflow never saves you
  aggressive.min_survivors = 1;
  const auto out =
      srv.submit_portfolio(portfolio_base(up.hash, 4000), 2, 0.0, aggressive);
  ASSERT_TRUE(out.ok) << out.error;
  const auto st = srv.batch_wait(out.batch_id, 300.0);
  ASSERT_TRUE(st.has_value());
  ASSERT_TRUE(st->all_terminal);
  ASSERT_GE(st->killed, 1u);
  EXPECT_EQ(st->cancelled, st->killed);
  EXPECT_GE(srv.stats().portfolio_kills, 1u);
  // The killed member landed kCancelled with its committed best snapshot:
  // real iterations, real HPWL (not an empty record).
  std::size_t cancelled_seen = 0;
  for (const auto& ref : out.jobs) {
    const auto rec = srv.status(ref.id);
    ASSERT_TRUE(rec.has_value());
    if (rec->state == JobState::kCancelled) {
      ++cancelled_seen;
      EXPECT_GT(rec->iterations, 0);
      EXPECT_GT(rec->hpwl, 0.0);
    }
  }
  EXPECT_EQ(cancelled_seen, st->killed);
  // The winner survived and finished.
  ASSERT_NE(st->best_job, 0u);
  const auto win = srv.status(st->best_job);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->state, JobState::kDone);
  srv.shutdown(/*drain=*/false);
}

TEST(ServerPortfolio, SubmitValidation) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  JobSpec src;
  src.demo_cells = 120;
  src.demo_seed = 2;
  const auto up = srv.upload_design(src);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_FALSE(srv.submit_portfolio(portfolio_base(up.hash), 1, 0.0).ok);
  EXPECT_FALSE(srv.submit_portfolio(portfolio_base(up.hash), 65, 0.0).ok);
  EXPECT_FALSE(srv.submit_portfolio(portfolio_base(up.hash), 4, -1.0).ok);
  EXPECT_FALSE(srv.batch_status(99).has_value());
  srv.shutdown(/*drain=*/false);
}

// ---------------------------------------------------------------------------
// batch-cancel
// ---------------------------------------------------------------------------

TEST(ServerBatchCancel, CancelsEveryNonTerminalMember) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  JobSpec src;
  src.demo_cells = 1200;
  src.demo_seed = 3;
  const auto up = srv.upload_design(src);
  ASSERT_TRUE(up.ok) << up.error;

  JobSpec base;
  base.design_hash = up.hash;
  std::vector<JobSpec> configs;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    JobSpec c = portfolio_base(up.hash, 4000);
    c.seed = s;
    c.dedup = true;
    configs.push_back(c);
  }
  const auto batch = srv.submit_batch(base, configs);
  ASSERT_TRUE(batch.ok) << batch.error;

  std::size_t cancelled = 0;
  std::string err;
  ASSERT_TRUE(srv.batch_cancel(batch.batch_id, &cancelled, &err)) << err;
  EXPECT_GE(cancelled, 2u);  // the running member may already be terminal
  const auto st = srv.batch_wait(batch.batch_id, 120.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->all_terminal);
  // Cancelling again is a no-op that still succeeds (0 members acted on).
  ASSERT_TRUE(srv.batch_cancel(batch.batch_id, &cancelled, &err)) << err;
  EXPECT_EQ(cancelled, 0u);
  // Unknown ids fail loudly.
  EXPECT_FALSE(srv.batch_cancel(999, &cancelled, &err));
  srv.shutdown(/*drain=*/false);
}

// ---------------------------------------------------------------------------
// Crash-restart recovery
// ---------------------------------------------------------------------------

BatchRace night_race() {
  BatchRace race;
  race.base_seed = 11;
  race.k = 4;
  race.deadline_s = 120.5;
  race.policy.min_iter = 25;
  race.policy.hpwl_margin = 1.08;
  race.policy.overflow_slack = -0.02;
  race.policy.min_survivors = 2;
  race.policy.no_kill = true;
  return race;
}

void expect_same_race(const BatchRace& got, const BatchRace& want) {
  EXPECT_EQ(got.base_seed, want.base_seed);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.deadline_s, want.deadline_s);
  EXPECT_EQ(got.policy.min_iter, want.policy.min_iter);
  EXPECT_EQ(got.policy.hpwl_margin, want.policy.hpwl_margin);
  EXPECT_EQ(got.policy.overflow_slack, want.policy.overflow_slack);
  EXPECT_EQ(got.policy.min_survivors, want.policy.min_survivors);
  EXPECT_EQ(got.policy.no_kill, want.policy.no_kill);
}

TEST(PortfolioRecovery, CodecRoundTrip) {
  // A portfolio journals as one kBatch record with the race section appended.
  BatchInfo info;
  info.design_hash = 0xdeadbeefcafef00dULL;
  info.label = "night_sweep";
  info.job_ids = {3, 4, 5, 6};
  info.deduped = {0, 0, 1, 0};
  info.race = night_race();
  BatchInfo out;
  ASSERT_TRUE(decode_batch(encode_batch(info), &out));
  EXPECT_EQ(out.design_hash, info.design_hash);
  EXPECT_EQ(out.label, info.label);
  EXPECT_EQ(out.job_ids, info.job_ids);
  EXPECT_EQ(out.deduped, info.deduped);
  ASSERT_TRUE(out.race.has_value());
  expect_same_race(*out.race, *info.race);
  // A plain batch decodes without a race section, even into a reused struct.
  info.race.reset();
  ASSERT_TRUE(decode_batch(encode_batch(info), &out));
  EXPECT_FALSE(out.race.has_value());
  EXPECT_FALSE(decode_batch("short", &out));
}

io::JournalRecord journal_rec(JournalEvent type, std::uint64_t id,
                              std::string payload) {
  io::JournalRecord r;
  r.type = static_cast<std::uint32_t>(type);
  r.job_id = id;
  r.time_s = 0.0;
  r.payload = std::move(payload);
  return r;
}

std::size_t count_batch_records(const std::vector<io::JournalRecord>& recs,
                                std::uint64_t id) {
  std::size_t n = 0;
  for (const io::JournalRecord& r : recs) {
    n += r.type == static_cast<std::uint32_t>(JournalEvent::kBatch) &&
         r.job_id == id;
  }
  return n;
}

TEST(PortfolioRecovery, CrashMidPortfolioRecoversAndSettles) {
  const fs::path state = fresh_dir("crash");
  const std::uint64_t dhash = io::demo_content_hash(130, 5);
  const BatchRace race = night_race();

  // Fabricate the journal a daemon killed mid-portfolio would leave: design
  // ref, member 1 finished, member 2 still queued, the one batch record with
  // its race section — and no clean-shutdown marker.
  {
    io::JournalWriter w;
    ASSERT_TRUE(w.open((state / "journal.xpjl").string(), /*truncate=*/true));
    DesignStore::SourceRef ref;
    ref.demo = true;
    ref.cells = 130;
    ref.seed = 5;
    ASSERT_TRUE(w.append(journal_rec(JournalEvent::kDesignRef, dhash,
                                     encode_design_ref(ref))));
    JobSpec m1 = portfolio_base(dhash, 25);
    m1.batch_id = 1;
    m1.dedup = true;
    ASSERT_TRUE(w.append(
        journal_rec(JournalEvent::kSubmit, 1, encode_submit(m1, 0))));
    ASSERT_TRUE(w.append(journal_rec(JournalEvent::kStart, 1, {})));
    JobRecord fin;
    fin.state = JobState::kDone;
    fin.hpwl = 42.5;
    fin.iterations = 25;
    ASSERT_TRUE(w.append(
        journal_rec(JournalEvent::kFinish, 1, encode_finish(fin))));
    JobSpec m2 = m1;
    m2.seed = 2;
    m2.gamma_scale = 1.1;
    ASSERT_TRUE(w.append(
        journal_rec(JournalEvent::kSubmit, 2, encode_submit(m2, 0))));
    BatchInfo batch;
    batch.design_hash = dhash;
    batch.label = "p1";
    batch.job_ids = {1, 2};
    batch.deduped = {0, 0};
    batch.race = race;
    ASSERT_TRUE(w.append(
        journal_rec(JournalEvent::kBatch, 1, encode_batch(batch))));
  }

  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  PlacementServer srv(cfg);

  // The raced batch survived the crash with its race section...
  const auto st0 = srv.batch_status(1);
  ASSERT_TRUE(st0.has_value());
  EXPECT_EQ(st0->id, 1u);
  EXPECT_EQ(st0->design_hash, dhash);
  ASSERT_TRUE(st0->race.has_value());
  expect_same_race(*st0->race, race);
  ASSERT_EQ(st0->jobs.size(), 2u);
  // ...and startup compaction kept it as exactly one record.
  EXPECT_EQ(count_batch_records(
                io::read_journal((state / "journal.xpjl").string()).records,
                1),
            1u);

  // It settles: member 1 replays as done, member 2 re-runs to terminal, and
  // the replayed member's (fabricated, tiny) HPWL wins.
  const auto st = srv.batch_wait(1, 300.0);
  ASSERT_TRUE(st.has_value());
  EXPECT_TRUE(st->all_terminal);
  EXPECT_EQ(st->done, 2u);
  EXPECT_EQ(st->best_job, 1u);
  EXPECT_EQ(st->best_hpwl, 42.5);

  // Ids keep advancing past the recovered portfolio.
  const auto out = srv.submit_portfolio(portfolio_base(dhash, 25), 2, 0.0);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.batch_id, 2u);

  srv.shutdown(/*drain=*/true);
  fs::remove_all(state);
}

TEST(PortfolioRecovery, CompactionEmitsOneRecordPerBatch) {
  // A plain batch, a raced batch, and a re-journaled copy of the raced one:
  // compaction folds them into one kBatch record per batch id, and the race
  // section rides inside the record.
  BatchInfo plain;
  plain.design_hash = 0x1234ULL;
  plain.job_ids = {1, 2};
  plain.deduped = {0, 1};
  BatchInfo raced = plain;
  raced.job_ids = {3, 4};
  raced.deduped = {0, 0};
  raced.race = night_race();
  io::JournalReplay replay;
  replay.records = {
      journal_rec(JournalEvent::kBatch, 1, encode_batch(plain)),
      journal_rec(JournalEvent::kBatch, 2, encode_batch(raced)),
      journal_rec(JournalEvent::kBatch, 2, encode_batch(raced)),
  };
  const RecoveryPlan plan = build_recovery_plan(replay);
  EXPECT_EQ(plan.max_batch_id, 2u);
  const std::vector<io::JournalRecord> recs = compaction_records(plan);
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(count_batch_records(recs, 1), 1u);
  EXPECT_EQ(count_batch_records(recs, 2), 1u);
  BatchInfo back;
  ASSERT_TRUE(decode_batch(recs[0].payload, &back));
  EXPECT_FALSE(back.race.has_value());
  ASSERT_TRUE(decode_batch(recs[1].payload, &back));
  ASSERT_TRUE(back.race.has_value());
  expect_same_race(*back.race, night_race());
}

// ---------------------------------------------------------------------------
// One batch abstraction over the wire: shared ids, aliased verbs
// ---------------------------------------------------------------------------

class PortfolioDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = (fs::temp_directory_path() /
                    ("xplace_portfolio_" + std::to_string(::getpid()) +
                     ".sock"))
                       .string();
    ServerConfig cfg;
    cfg.max_concurrency = 2;
    srv_ = std::make_unique<PlacementServer>(cfg);
    daemon_ = std::thread([this] { serve(*srv_, socket_path_); });
    for (int i = 0; i < 200; ++i) {
      if (UdsStream::connect(socket_path_).valid()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    JobSpec src;
    src.demo_cells = 120;
    src.demo_seed = 2;
    const auto up = srv_->upload_design(src);
    ASSERT_TRUE(up.ok) << up.error;
    design_ = hash_to_hex(up.hash);
  }

  void TearDown() override {
    rpc(R"({"cmd":"shutdown","drain":false})");
    daemon_.join();
  }

  json::Value rpc(const std::string& request_line) {
    UdsStream s = UdsStream::connect(socket_path_);
    EXPECT_TRUE(s.valid());
    EXPECT_TRUE(s.write_line(request_line));
    std::string line;
    bool oversized = false;
    EXPECT_TRUE(s.read_line(&line, &oversized));
    json::Value v;
    std::string error;
    EXPECT_TRUE(json::parse(line, &v, &error)) << line;
    return v;
  }

  /// Submits a K-member portfolio over the socket; returns its response.
  json::Value submit_portfolio(int k) {
    return rpc(R"({"cmd":"submit-portfolio","design":")" + design_ +
               R"(","k":)" + std::to_string(k) +
               R"(,"seed":1,"max_iters":25,"grid":32,"full_flow":false})");
  }

  std::string socket_path_;
  std::string design_;
  std::unique_ptr<PlacementServer> srv_;
  std::thread daemon_;
};

TEST_F(PortfolioDaemonTest, PortfolioIdIsItsBatchId) {
  const json::Value batch = rpc(
      R"({"cmd":"submit-batch","design":")" + design_ +
      R"(","max_iters":25,"grid":32,"full_flow":false,)"
      R"("configs":[{"seed":1},{"seed":2}]})");
  ASSERT_TRUE(batch.get_bool("ok", false)) << batch.dump();
  EXPECT_EQ(batch.get_number("batch", 0), 1.0);

  const json::Value pf = submit_portfolio(2);
  ASSERT_TRUE(pf.get_bool("ok", false)) << pf.dump();
  EXPECT_EQ(pf.get_number("portfolio", 0), 2.0);
  EXPECT_EQ(pf.get_number("batch", 0), 2.0);

  // The plain batch has no race section, so the portfolio verbs refuse it...
  const json::Value not_raced = rpc(R"({"cmd":"portfolio-status","id":1})");
  EXPECT_FALSE(not_raced.get_bool("ok", true));
  EXPECT_EQ(not_raced.get_string("error"), "unknown portfolio id");
  // ...while the batch verbs serve both.
  EXPECT_TRUE(rpc(R"({"cmd":"batch-status","id":2})").get_bool("ok", false));
  EXPECT_TRUE(
      rpc(R"({"cmd":"portfolio-status","id":2})").get_bool("ok", false));
  const json::Value stats = rpc(R"({"cmd":"stats"})");
  EXPECT_EQ(stats.get_number("batches", 0), 2.0);
  EXPECT_EQ(stats.get_number("portfolios", 0), 1.0);
}

TEST_F(PortfolioDaemonTest, BatchAndPortfolioResultAgree) {
  const json::Value pf = submit_portfolio(3);
  ASSERT_TRUE(pf.get_bool("ok", false)) << pf.dump();
  const std::string id = std::to_string(
      static_cast<std::uint64_t>(pf.get_number("portfolio", 0)));
  const json::Value p = rpc(R"({"cmd":"portfolio-result","wait":true,)"
                            R"("timeout_s":300,"id":)" + id + "}");
  const json::Value b = rpc(R"({"cmd":"batch-result","id":)" + id + "}");
  ASSERT_TRUE(p.get_bool("ok", false)) << p.dump();
  ASSERT_TRUE(b.get_bool("ok", false)) << b.dump();
  const json::Value* pa = p.find("portfolio");
  const json::Value* ba = b.find("batch");
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(ba, nullptr);
  EXPECT_TRUE(pa->get_bool("all_terminal", false));
  // One serializer: the same aggregate under either key, members included.
  EXPECT_EQ(pa->dump(), ba->dump());
  EXPECT_EQ(pa->find("jobs")->dump(), ba->find("jobs")->dump());
  EXPECT_EQ(pa->get_number("killed", -1), ba->get_number("killed", -2));
  EXPECT_NE(pa->get_number("winner", 0), 0.0);
  EXPECT_EQ(pa->get_number("winner", 0), ba->get_number("best_job", -1));
  // The winner job object and the member records agree too.
  ASSERT_NE(p.find("winner"), nullptr);
  ASSERT_NE(b.find("winner"), nullptr);
  EXPECT_EQ(p.find("winner")->dump(), b.find("winner")->dump());
  EXPECT_EQ(p.find("jobs")->dump(), b.find("jobs")->dump());
}

// ---------------------------------------------------------------------------
// First-class seed + hill-climb kick (core level)
// ---------------------------------------------------------------------------

db::Database kick_design(std::size_t cells = 400, std::uint64_t seed = 5) {
  io::GeneratorSpec spec;
  spec.name = "portfolio_unit";
  spec.num_cells = cells;
  spec.num_nets = cells + cells / 20;
  spec.num_macros = 2;
  spec.num_io_pads = 12;
  spec.seed = seed;
  return io::generate(spec);
}

TEST(PlacerSeed, FirstClassSeedMatchesExplicitStreams) {
  core::PlacerConfig a;
  a.grid_dim = 32;
  a.max_iters = 50;
  a.stop_overflow = 0.0;
  a.seed = 5;
  core::PlacerConfig b = a;
  b.seed = 0;
  b.filler_seed = 5;
  b.init_noise_seed = 6;

  db::Database db1 = kick_design();
  core::GlobalPlacer p1(db1, a);
  const auto r1 = p1.run();
  db::Database db2 = kick_design();
  core::GlobalPlacer p2(db2, b);
  const auto r2 = p2.run();
  EXPECT_EQ(r1.hpwl, r2.hpwl);  // bitwise
  EXPECT_EQ(r1.iterations, r2.iterations);
}

TEST(PlacerKick, KickedRunNeverWorseAndDeterministic) {
  core::PlacerConfig base;
  base.grid_dim = 32;
  base.max_iters = 600;
  base.seed = 7;
  db::Database db0 = kick_design();
  core::GlobalPlacer p0(db0, base);
  const auto r0 = p0.run();

  core::PlacerConfig kicked = base;
  kicked.kicks = 2;
  kicked.kick_iters = 60;
  db::Database db1 = kick_design();
  core::GlobalPlacer p1(db1, kicked);
  const auto r1 = p1.run();
  EXPECT_EQ(r1.kicks_attempted, 2);
  EXPECT_GE(r1.kicks_accepted, 0);
  // Accept-if-better: the committed solution never regresses past the
  // unkicked run's.
  EXPECT_LE(r1.hpwl, r0.hpwl);

  // Bit-determinism at a fixed seed, kicks included.
  db::Database db2 = kick_design();
  core::GlobalPlacer p2(db2, kicked);
  const auto r2 = p2.run();
  EXPECT_EQ(r1.hpwl, r2.hpwl);  // bitwise
  EXPECT_EQ(r1.kicks_accepted, r2.kicks_accepted);
}

// ---------------------------------------------------------------------------
// Protocol round-trips for the new verbs
// ---------------------------------------------------------------------------

TEST(PortfolioProtocol, SubmitPortfolioRoundTrip) {
  Request req;
  req.cmd = Command::kSubmitPortfolio;
  req.spec.design_hash = 0xabc123ULL;
  req.spec.max_iters = 500;
  req.spec.seed = 3;
  req.spec.label = "night";
  req.spec.deadline_s = 90.0;
  req.k = 4;
  req.kill_min_iter = 40;
  req.kill_margin = 1.1;
  req.kill_slack = -0.25;  // negative slack must survive the wire
  req.no_kill = false;

  Request out;
  std::string err;
  ASSERT_TRUE(parse_request(build_request(req), &out, &err)) << err;
  EXPECT_EQ(out.cmd, Command::kSubmitPortfolio);
  EXPECT_EQ(out.spec.design_hash, req.spec.design_hash);
  EXPECT_EQ(out.spec.max_iters, 500);
  EXPECT_EQ(out.spec.seed, 3u);
  EXPECT_EQ(out.spec.label, "night");
  EXPECT_EQ(out.spec.deadline_s, 90.0);
  EXPECT_EQ(out.k, 4);
  EXPECT_EQ(out.kill_min_iter, 40);
  EXPECT_EQ(out.kill_margin, 1.1);
  EXPECT_EQ(out.kill_slack, -0.25);
  EXPECT_FALSE(out.no_kill);

  req.no_kill = true;
  ASSERT_TRUE(parse_request(build_request(req), &out, &err)) << err;
  EXPECT_TRUE(out.no_kill);
}

TEST(PortfolioProtocol, SubmitPortfolioRejectsBadK) {
  Request out;
  std::string err;
  EXPECT_FALSE(parse_request(
      R"({"cmd":"submit-portfolio","demo_cells":100})", &out, &err));
  EXPECT_FALSE(parse_request(
      R"({"cmd":"submit-portfolio","demo_cells":100,"k":1})", &out, &err));
  EXPECT_FALSE(parse_request(
      R"({"cmd":"submit-portfolio","demo_cells":100,"k":2.5})", &out, &err));
  EXPECT_TRUE(parse_request(
      R"({"cmd":"submit-portfolio","demo_cells":100,"k":2})", &out, &err))
      << err;
  EXPECT_EQ(out.k, 2);
}

TEST(PortfolioProtocol, StatusResultCancelRoundTrip) {
  for (const Command cmd : {Command::kBatchCancel, Command::kPortfolioStatus,
                            Command::kPortfolioResult}) {
    Request req;
    req.cmd = cmd;
    req.id = 17;
    if (cmd == Command::kPortfolioResult) {
      req.wait = true;
      req.timeout_s = 12.5;
    }
    Request out;
    std::string err;
    ASSERT_TRUE(parse_request(build_request(req), &out, &err))
        << to_string(cmd) << ": " << err;
    EXPECT_EQ(out.cmd, cmd);
    EXPECT_EQ(out.id, 17u);
    if (cmd == Command::kPortfolioResult) {
      EXPECT_TRUE(out.wait);
      EXPECT_EQ(out.timeout_s, 12.5);
    }
  }
  // The id is required for all three.
  Request out;
  std::string err;
  EXPECT_FALSE(parse_request(R"({"cmd":"batch-cancel"})", &out, &err));
  EXPECT_FALSE(parse_request(R"({"cmd":"portfolio-status"})", &out, &err));
}

TEST(PortfolioProtocol, PerturbationScalesRideTheSpec) {
  Request req;
  req.cmd = Command::kSubmit;
  req.spec.demo_cells = 200;
  req.spec.init_noise_scale = 2.5;
  req.spec.gamma_scale = 0.8;
  req.spec.lambda_scale = 1.5;
  Request out;
  std::string err;
  ASSERT_TRUE(parse_request(build_request(req), &out, &err)) << err;
  EXPECT_EQ(out.spec.init_noise_scale, 2.5);
  EXPECT_EQ(out.spec.gamma_scale, 0.8);
  EXPECT_EQ(out.spec.lambda_scale, 1.5);
}

}  // namespace
}  // namespace xplace::server
