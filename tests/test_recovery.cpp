// Tests for the durability & self-healing layer (DESIGN.md §13): the
// checksummed journal (torn tails, corruption, disk-full, atomic compaction),
// the recovery planner's record folding, server-layer fault-plan parsing, and
// the PlacementServer end to end — crash-equivalent restart resuming an
// interrupted job bit-for-bit from its XPCK spill, supervised retry with
// backoff + retune, load shedding under saturation, and the clean-shutdown
// marker.
//
// Determinism note: every served job here runs at thread count 1 (the server
// default), so the bitwise HPWL comparisons hold in every CI lane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/guardian.h"
#include "core/placer.h"
#include "io/bookshelf.h"
#include "io/generator.h"
#include "io/journal.h"
#include "server/faults.h"
#include "server/recovery.h"
#include "server/server.h"

namespace xplace::server {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("xplace_recovery_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string journal_for(const fs::path& state_dir) {
  return (state_dir / "journal.xpjl").string();
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

io::JournalRecord make_record(JournalEvent type, std::uint64_t id,
                              std::string payload = {}) {
  io::JournalRecord rec;
  rec.type = static_cast<std::uint32_t>(type);
  rec.job_id = id;
  rec.time_s = wall_now();
  rec.payload = std::move(payload);
  return rec;
}

JobSpec demo_spec(long cells, int iters, bool full_flow = false) {
  JobSpec s;
  s.demo_cells = cells;
  s.max_iters = iters;
  s.full_flow = full_flow;
  return s;
}

// ---------------------------------------------------------------------------
// io::Journal framing
// ---------------------------------------------------------------------------

TEST(Journal, AppendReplayRoundTrip) {
  const fs::path dir = fresh_dir("roundtrip");
  const std::string path = (dir / "journal.xpjl").string();

  io::JournalWriter w;
  ASSERT_TRUE(w.open(path, /*truncate=*/true));
  ASSERT_TRUE(w.append(make_record(JournalEvent::kSubmit, 1, "payload-a")));
  ASSERT_TRUE(w.append(make_record(JournalEvent::kStart, 1)));
  io::JournalRecord big = make_record(JournalEvent::kCheckpoint, 2);
  big.payload.assign(4096, '\x7f');
  big.time_s = 1234.5;
  ASSERT_TRUE(w.append(big));
  EXPECT_EQ(w.records_written(), 3u);
  const std::uint64_t bytes = w.size_bytes();
  w.close();
  EXPECT_EQ(static_cast<std::uint64_t>(fs::file_size(path)), bytes);

  const io::JournalReplay replay = io::read_journal(path);
  EXPECT_FALSE(replay.missing);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.corrupt);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0].type,
            static_cast<std::uint32_t>(JournalEvent::kSubmit));
  EXPECT_EQ(replay.records[0].job_id, 1u);
  EXPECT_EQ(replay.records[0].payload, "payload-a");
  EXPECT_EQ(replay.records[2].job_id, 2u);
  EXPECT_EQ(replay.records[2].time_s, 1234.5);
  EXPECT_EQ(replay.records[2].payload, big.payload);
  fs::remove_all(dir);
}

TEST(Journal, MissingFileIsAFreshStartNotAnError) {
  const io::JournalReplay replay =
      io::read_journal("/nonexistent/dir/journal.xpjl");
  EXPECT_TRUE(replay.missing);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.corrupt);
}

TEST(Journal, NonJournalFileThrows) {
  const fs::path dir = fresh_dir("badmagic");
  const std::string path = (dir / "journal.xpjl").string();
  std::ofstream(path) << "this is not a journal";
  EXPECT_THROW(io::read_journal(path), std::runtime_error);
  fs::remove_all(dir);
}

TEST(Journal, TornTailKeepsIntactRecordsAndKillsTheWriter) {
  const fs::path dir = fresh_dir("torn");
  const std::string path = (dir / "journal.xpjl").string();

  io::JournalWriter w;
  ASSERT_TRUE(w.open(path, /*truncate=*/true));
  ASSERT_TRUE(w.append(make_record(JournalEvent::kSubmit, 1, "a")));
  ASSERT_TRUE(w.append(make_record(JournalEvent::kStart, 1)));
  w.arm_torn_write();
  // The torn append fails (the frame only half-landed)...
  EXPECT_FALSE(w.append(make_record(JournalEvent::kCheckpoint, 1, "b")));
  // ...and the writer then behaves like the process died.
  EXPECT_FALSE(w.append(make_record(JournalEvent::kFinish, 1)));
  w.close();

  const io::JournalReplay replay = io::read_journal(path);
  EXPECT_TRUE(replay.torn_tail);
  EXPECT_FALSE(replay.corrupt);
  ASSERT_EQ(replay.records.size(), 2u);  // both acknowledged records survive
  EXPECT_EQ(replay.records[1].type,
            static_cast<std::uint32_t>(JournalEvent::kStart));
  fs::remove_all(dir);
}

TEST(Journal, CorruptChecksumStopsReplayAtTheBadFrame) {
  const fs::path dir = fresh_dir("corrupt");
  const std::string path = (dir / "journal.xpjl").string();

  io::JournalWriter w;
  ASSERT_TRUE(w.open(path, /*truncate=*/true));
  ASSERT_TRUE(w.append(make_record(JournalEvent::kSubmit, 1, "intact")));
  const std::uint64_t first_end = w.size_bytes();
  ASSERT_TRUE(w.append(make_record(JournalEvent::kSubmit, 2, "doomed")));
  ASSERT_TRUE(w.append(make_record(JournalEvent::kStart, 2)));
  w.close();

  // Flip one payload byte inside the second frame's body; its checksum no
  // longer matches, so replay must stop there and keep only record #1.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekp(static_cast<std::streamoff>(first_end) + 4 + 20, std::ios::beg);
  f.put('X');
  f.close();

  const io::JournalReplay replay = io::read_journal(path);
  EXPECT_TRUE(replay.corrupt);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "intact");
  fs::remove_all(dir);
}

TEST(Journal, DiskFullFailsAppendsWithoutWriting) {
  const fs::path dir = fresh_dir("diskfull");
  const std::string path = (dir / "journal.xpjl").string();

  io::JournalWriter w;
  ASSERT_TRUE(w.open(path, /*truncate=*/true));
  ASSERT_TRUE(w.append(make_record(JournalEvent::kSubmit, 1, "a")));
  const std::uint64_t before = w.size_bytes();
  w.arm_disk_full();
  EXPECT_FALSE(w.append(make_record(JournalEvent::kSubmit, 2, "b")));
  EXPECT_EQ(w.size_bytes(), before);
  w.close();

  const io::JournalReplay replay = io::read_journal(path);
  EXPECT_FALSE(replay.torn_tail);
  ASSERT_EQ(replay.records.size(), 1u);
  fs::remove_all(dir);
}

TEST(Journal, RewriteReplacesContentAtomically) {
  const fs::path dir = fresh_dir("rewrite");
  const std::string path = (dir / "journal.xpjl").string();

  io::JournalWriter w;
  ASSERT_TRUE(w.open(path, /*truncate=*/true));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(w.append(make_record(JournalEvent::kSubmit,
                                     static_cast<std::uint64_t>(i + 1),
                                     std::string(256, 'x'))));
  }
  const std::uint64_t full_size = w.size_bytes();
  w.close();

  std::vector<io::JournalRecord> compact;
  compact.push_back(make_record(JournalEvent::kSubmit, 16, "survivor"));
  ASSERT_TRUE(io::rewrite_journal(path, compact));
  EXPECT_LT(static_cast<std::uint64_t>(fs::file_size(path)), full_size);

  const io::JournalReplay replay = io::read_journal(path);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_FALSE(replay.corrupt);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].job_id, 16u);
  EXPECT_EQ(replay.records[0].payload, "survivor");
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Recovery planning (record semantics + folding)
// ---------------------------------------------------------------------------

TEST(Recovery, PayloadCodecsRoundTripBitwise) {
  JobSpec spec;
  spec.aux = "designs/big.aux";
  spec.demo_cells = 0;
  spec.demo_seed = 42;
  spec.max_iters = 777;
  spec.grid = 96;
  spec.threads = 3;
  spec.full_flow = false;
  spec.priority = -5;
  spec.deadline_s = 12.5;
  spec.label = "codec_job";
  JobSpec out_spec;
  int attempt = -1;
  ASSERT_TRUE(decode_submit(encode_submit(spec, 2), &out_spec, &attempt));
  EXPECT_EQ(attempt, 2);
  EXPECT_EQ(out_spec.aux, spec.aux);
  EXPECT_EQ(out_spec.demo_seed, spec.demo_seed);
  EXPECT_EQ(out_spec.max_iters, spec.max_iters);
  EXPECT_EQ(out_spec.grid, spec.grid);
  EXPECT_EQ(out_spec.threads, spec.threads);
  EXPECT_EQ(out_spec.full_flow, spec.full_flow);
  EXPECT_EQ(out_spec.priority, spec.priority);
  EXPECT_EQ(out_spec.deadline_s, spec.deadline_s);
  EXPECT_EQ(out_spec.label, spec.label);

  JobRecord fin;
  fin.state = JobState::kCancelled;
  fin.stop_reason = core::StopReason::kDeadline;
  fin.hpwl = 1.2345678901234567e6;  // bitwise survival, not text round-trip
  fin.overflow = 0.37;
  fin.iterations = 321;
  fin.gp_seconds = 4.25;
  fin.dp_hpwl = 9.75e5;
  fin.legalized = true;
  fin.error = "deadline";
  JobRecord fout;
  ASSERT_TRUE(decode_finish(encode_finish(fin), &fout));
  EXPECT_EQ(fout.state, fin.state);
  EXPECT_EQ(fout.stop_reason, fin.stop_reason);
  EXPECT_EQ(std::memcmp(&fout.hpwl, &fin.hpwl, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&fout.dp_hpwl, &fin.dp_hpwl, sizeof(double)), 0);
  EXPECT_EQ(fout.iterations, fin.iterations);
  EXPECT_EQ(fout.legalized, fin.legalized);
  EXPECT_EQ(fout.error, fin.error);

  int next_iter = 0;
  std::string ck_path;
  ASSERT_TRUE(decode_checkpoint(encode_checkpoint(240, "/tmp/job7.xpck"),
                                &next_iter, &ck_path));
  EXPECT_EQ(next_iter, 240);
  EXPECT_EQ(ck_path, "/tmp/job7.xpck");

  RetryInfo retry;
  retry.attempt = 1;
  retry.backoff_s = 0.625;
  retry.reason = "diverged";
  RetryInfo rout;
  ASSERT_TRUE(decode_retry(encode_retry(retry), &rout));
  EXPECT_EQ(rout.attempt, 1);
  EXPECT_EQ(rout.backoff_s, 0.625);
  EXPECT_EQ(rout.reason, "diverged");

  // Truncated payloads are rejected, never mis-decoded.
  const std::string enc = encode_submit(spec, 0);
  EXPECT_FALSE(decode_submit(enc.substr(0, enc.size() / 2), &out_spec,
                             &attempt));
  EXPECT_FALSE(decode_finish("", &fout));
}

TEST(Recovery, InterleavedSubmitCancelReplayFoldsPerJob) {
  io::JournalReplay replay;
  // Job 1 runs and finishes; job 2 gets a dangling cancel (crash hit between
  // the cancel record and its settle); job 3 stays queued; job 4 was running
  // with a checkpoint down.
  replay.records.push_back(
      make_record(JournalEvent::kSubmit, 1, encode_submit(demo_spec(100, 10), 0)));
  replay.records.push_back(
      make_record(JournalEvent::kSubmit, 2, encode_submit(demo_spec(200, 20), 0)));
  replay.records.push_back(make_record(JournalEvent::kStart, 1));
  replay.records.push_back(
      make_record(JournalEvent::kSubmit, 3, encode_submit(demo_spec(300, 30), 0)));
  replay.records.push_back(make_record(JournalEvent::kCancel, 2));
  JobRecord fin;
  fin.state = JobState::kDone;
  fin.hpwl = 123.0;
  replay.records.push_back(
      make_record(JournalEvent::kFinish, 1, encode_finish(fin)));
  replay.records.push_back(
      make_record(JournalEvent::kSubmit, 4, encode_submit(demo_spec(400, 40), 0)));
  replay.records.push_back(make_record(JournalEvent::kStart, 4));
  replay.records.push_back(make_record(
      JournalEvent::kCheckpoint, 4, encode_checkpoint(20, "/tmp/job4.xpck")));

  const RecoveryPlan plan = build_recovery_plan(replay);
  EXPECT_FALSE(plan.clean_shutdown);
  EXPECT_EQ(plan.max_id, 4u);
  ASSERT_EQ(plan.jobs.size(), 4u);
  // Submit order is preserved.
  EXPECT_EQ(plan.jobs[0].rec.id, 1u);
  EXPECT_EQ(plan.jobs[1].rec.id, 2u);
  EXPECT_EQ(plan.jobs[2].rec.id, 3u);
  EXPECT_EQ(plan.jobs[3].rec.id, 4u);

  EXPECT_TRUE(plan.jobs[0].terminal);
  EXPECT_EQ(plan.jobs[0].rec.state, JobState::kDone);
  EXPECT_EQ(plan.jobs[0].rec.hpwl, 123.0);

  EXPECT_FALSE(plan.jobs[1].terminal);
  EXPECT_TRUE(plan.jobs[1].cancel_requested);

  EXPECT_FALSE(plan.jobs[2].terminal);
  EXPECT_FALSE(plan.jobs[2].was_running);
  EXPECT_TRUE(plan.jobs[2].checkpoint_path.empty());

  EXPECT_TRUE(plan.jobs[3].was_running);
  EXPECT_EQ(plan.jobs[3].checkpoint_path, "/tmp/job4.xpck");
  EXPECT_EQ(plan.jobs[3].checkpoint_iter, 20);
}

TEST(Recovery, RetryRecordsRebuildAttemptHistory) {
  io::JournalReplay replay;
  replay.records.push_back(make_record(
      JournalEvent::kSubmit, 1, encode_submit(demo_spec(100, 10), 0)));
  replay.records.push_back(make_record(JournalEvent::kStart, 1));
  replay.records.push_back(make_record(
      JournalEvent::kCheckpoint, 1, encode_checkpoint(8, "/tmp/job1.xpck")));
  RetryInfo retry;
  retry.attempt = 1;
  retry.backoff_s = 0.5;
  retry.reason = "diverged";
  replay.records.push_back(
      make_record(JournalEvent::kRetry, 1, encode_retry(retry)));

  const RecoveryPlan plan = build_recovery_plan(replay);
  ASSERT_EQ(plan.jobs.size(), 1u);
  const RecoveredJob& rj = plan.jobs[0];
  EXPECT_EQ(rj.rec.attempt, 1);
  // The retry abandons the diverged trajectory: no resume point, not running.
  EXPECT_FALSE(rj.was_running);
  EXPECT_TRUE(rj.checkpoint_path.empty());
  ASSERT_EQ(rj.rec.attempts.size(), 1u);
  EXPECT_EQ(rj.rec.attempts[0].number, 0);
  EXPECT_EQ(rj.rec.attempts[0].outcome, "diverged");
  EXPECT_EQ(rj.rec.attempts[0].backoff_s, 0.5);
}

TEST(Recovery, CleanShutdownMarkerOnlyCountsAsFinalRecord) {
  io::JournalReplay replay;
  replay.records.push_back(make_record(JournalEvent::kCleanShutdown, 0));
  replay.records.push_back(make_record(
      JournalEvent::kSubmit, 1, encode_submit(demo_spec(100, 10), 0)));
  EXPECT_FALSE(build_recovery_plan(replay).clean_shutdown);

  replay.records.push_back(make_record(JournalEvent::kCleanShutdown, 0));
  EXPECT_TRUE(build_recovery_plan(replay).clean_shutdown);
}

TEST(Recovery, CompactionReEmitsTheFoldedStateExactly) {
  io::JournalReplay replay;
  replay.records.push_back(make_record(
      JournalEvent::kSubmit, 1, encode_submit(demo_spec(100, 10), 0)));
  replay.records.push_back(make_record(JournalEvent::kStart, 1));
  RetryInfo retry;
  retry.attempt = 1;
  retry.backoff_s = 0.5;
  retry.reason = "diverged";
  replay.records.push_back(
      make_record(JournalEvent::kRetry, 1, encode_retry(retry)));
  replay.records.push_back(make_record(JournalEvent::kStart, 1));
  replay.records.push_back(make_record(
      JournalEvent::kCheckpoint, 1, encode_checkpoint(40, "/tmp/job1.xpck")));
  JobRecord fin;
  fin.state = JobState::kDone;
  fin.hpwl = 456.0;
  replay.records.push_back(make_record(
      JournalEvent::kSubmit, 2, encode_submit(demo_spec(200, 20), 0)));
  replay.records.push_back(
      make_record(JournalEvent::kFinish, 2, encode_finish(fin)));

  const RecoveryPlan plan = build_recovery_plan(replay);

  // Compact, then fold the compacted records again: the second fold must
  // reconstruct the same per-job state (this is exactly what a second
  // restart reads).
  io::JournalReplay compacted;
  compacted.records = compaction_records(plan);
  EXPECT_LE(compacted.records.size(), replay.records.size());
  const RecoveryPlan plan2 = build_recovery_plan(compacted);

  ASSERT_EQ(plan2.jobs.size(), plan.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const RecoveredJob& a = plan.jobs[i];
    const RecoveredJob& b = plan2.jobs[i];
    EXPECT_EQ(a.rec.id, b.rec.id);
    EXPECT_EQ(a.rec.attempt, b.rec.attempt);
    EXPECT_EQ(a.was_running, b.was_running);
    EXPECT_EQ(a.checkpoint_path, b.checkpoint_path);
    EXPECT_EQ(a.checkpoint_iter, b.checkpoint_iter);
    EXPECT_EQ(a.terminal, b.terminal);
    ASSERT_EQ(a.rec.attempts.size(), b.rec.attempts.size());
    for (std::size_t k = 0; k < a.rec.attempts.size(); ++k) {
      EXPECT_EQ(a.rec.attempts[k].outcome, b.rec.attempts[k].outcome);
      EXPECT_EQ(a.rec.attempts[k].backoff_s, b.rec.attempts[k].backoff_s);
    }
    if (a.terminal) {
      EXPECT_EQ(a.rec.state, b.rec.state);
      EXPECT_EQ(std::memcmp(&a.rec.hpwl, &b.rec.hpwl, sizeof(double)),
                0);
    }
  }
  EXPECT_EQ(plan2.max_id, plan.max_id);
}

// ---------------------------------------------------------------------------
// Server-layer fault plan
// ---------------------------------------------------------------------------

TEST(ServeFaultPlan, ParsesSharedGrammarAndSkipsGuardianItems) {
  const ServeFaultPlan plan = ServeFaultPlan::parse(
      "serve_crash@job:3,journal_torn,nonfinite_grad@iter:5,"
      "diverge@job:2,disk_full,alloc_fail@iter:9");
  ASSERT_EQ(plan.crash_after_checkpoint_of.size(), 1u);
  EXPECT_EQ(plan.crash_after_checkpoint_of[0], 3u);
  ASSERT_EQ(plan.diverge_jobs.size(), 1u);
  EXPECT_EQ(plan.diverge_jobs[0], 2u);
  EXPECT_TRUE(plan.journal_torn);
  EXPECT_TRUE(plan.disk_full);
  EXPECT_TRUE(plan.crash_armed_for(3));
  EXPECT_FALSE(plan.crash_armed_for(4));
  EXPECT_TRUE(plan.diverge_armed_for(2));

  EXPECT_TRUE(ServeFaultPlan::parse("").empty());
  EXPECT_TRUE(ServeFaultPlan::parse("nonfinite_grad@iter:5").empty());
  EXPECT_THROW(ServeFaultPlan::parse("serve_crash@job:banana"),
               std::invalid_argument);
  EXPECT_THROW(ServeFaultPlan::parse("diverge@job:"), std::invalid_argument);
}

TEST(Guardian, RetunedForRestartCompoundsAcrossAttempts) {
  const core::PlacerConfig base = core::PlacerConfig::xplace();
  const core::PlacerConfig same = core::retuned_for_restart(base, 0);
  // Attempt 0 is the identity: pow(x, 0) == 1.0 exactly, so the multiply
  // cannot perturb the config (bitwise determinism of first attempts).
  EXPECT_EQ(std::memcmp(&same.lambda_init_factor, &base.lambda_init_factor,
                        sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&same.initial_step_bins, &base.initial_step_bins,
                        sizeof(double)), 0);

  const core::PlacerConfig once = core::retuned_for_restart(base, 1);
  const core::PlacerConfig twice = core::retuned_for_restart(base, 2);
  EXPECT_DOUBLE_EQ(once.lambda_init_factor,
                   base.lambda_init_factor * base.guardian_lambda_shrink);
  EXPECT_DOUBLE_EQ(once.initial_step_bins,
                   base.initial_step_bins * base.guardian_step_shrink);
  EXPECT_LT(twice.lambda_init_factor, once.lambda_init_factor);
  EXPECT_LT(twice.initial_step_bins, once.initial_step_bins);
}

// ---------------------------------------------------------------------------
// PlacementServer end to end
// ---------------------------------------------------------------------------

/// The demo-job construction path (mirrors the server's make_demo_db) so the
/// direct reference runs below see the exact same database a served demo job
/// does.
db::Database build_demo_db(long cells, const fs::path& scratch) {
  io::GeneratorSpec gen;
  gen.name = "demo";
  gen.num_cells = static_cast<std::size_t>(cells);
  gen.num_nets = gen.num_cells + gen.num_cells / 20;
  gen.seed = 11;
  const db::Database generated = io::generate(gen);
  io::write_bookshelf(generated, scratch.string(), "demo");
  return io::read_bookshelf_aux((scratch / "demo.aux").string());
}

TEST(PlacementServerRecovery, RestartResumesInterruptedJobBitForBit) {
  const long cells = 300;
  const int iters = 60;
  const int spill_every = 20;
  const fs::path state = fresh_dir("resume_state");
  const fs::path scratch = fresh_dir("resume_scratch");

  // Reference: the uninterrupted trajectory, straight through the core.
  core::PlacerConfig pcfg = core::PlacerConfig::xplace();
  pcfg.max_iters = iters;
  pcfg.threads = 1;
  double ref_hpwl = 0.0;
  {
    db::Database db = build_demo_db(cells, scratch);
    core::GlobalPlacer placer(db, pcfg);
    ref_hpwl = placer.run().hpwl;
  }

  // Crash-equivalent state: run the same trajectory only up to the spill
  // boundary, leaving the XPCK a dying daemon would have journaled last,
  // then write the journal exactly as the daemon's append path would.
  const std::string ck_path = (state / "job1.xpck").string();
  {
    core::PlacerConfig partial = pcfg;
    partial.max_iters = spill_every;
    partial.checkpoint_out = ck_path;
    partial.checkpoint_period = spill_every;
    db::Database db = build_demo_db(cells, scratch);
    core::GlobalPlacer placer(db, partial);
    placer.run();
  }
  ASSERT_TRUE(fs::exists(ck_path));

  JobSpec spec = demo_spec(cells, iters);
  {
    io::JournalWriter w;
    ASSERT_TRUE(w.open((state / "journal.xpjl").string(), /*truncate=*/true));
    ASSERT_TRUE(w.append(make_record(JournalEvent::kSubmit, 1,
                                     encode_submit(spec, 0))));
    ASSERT_TRUE(w.append(make_record(JournalEvent::kStart, 1)));
    ASSERT_TRUE(w.append(make_record(JournalEvent::kCheckpoint, 1,
                                     encode_checkpoint(spill_every, ck_path))));
    w.close();
  }

  // Restart: the server must replay the journal, resume job 1 from the spill,
  // and land on the reference HPWL to the last bit.
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  cfg.spill_period = spill_every;
  PlacementServer srv(cfg);
  EXPECT_EQ(srv.stats().recovered, 1u);

  const auto rec = srv.wait(1, 300.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_TRUE(rec->recovered);
  EXPECT_EQ(rec->resume_from, ck_path);
  EXPECT_EQ(std::memcmp(&rec->hpwl, &ref_hpwl, sizeof(double)), 0)
      << "resumed hpwl " << rec->hpwl << " vs reference " << ref_hpwl;
  srv.shutdown(true);

  fs::remove_all(state);
  fs::remove_all(scratch);
}

TEST(PlacementServerRecovery, QueuedJobsRecoverInPriorityOrder) {
  const fs::path state = fresh_dir("order_state");
  {
    io::JournalWriter w;
    ASSERT_TRUE(w.open((state / "journal.xpjl").string(), /*truncate=*/true));
    JobSpec low = demo_spec(200, 30);
    JobSpec high = demo_spec(200, 30);
    high.priority = 10;
    // Submit order: low(1), high(2), low(3). Pop order after recovery must be
    // priority-first, FIFO within a priority: 2, 1, 3.
    ASSERT_TRUE(w.append(
        make_record(JournalEvent::kSubmit, 1, encode_submit(low, 0))));
    ASSERT_TRUE(w.append(
        make_record(JournalEvent::kSubmit, 2, encode_submit(high, 0))));
    ASSERT_TRUE(w.append(
        make_record(JournalEvent::kSubmit, 3, encode_submit(low, 0))));
    w.close();
  }

  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  PlacementServer srv(cfg);
  EXPECT_EQ(srv.stats().recovered, 3u);
  for (std::uint64_t id : {1, 2, 3}) {
    const auto rec = srv.wait(id, 300.0);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->state, JobState::kDone) << "job " << id;
    EXPECT_TRUE(rec->recovered);
  }
  const double s1 = srv.status(1)->started_s;
  const double s2 = srv.status(2)->started_s;
  const double s3 = srv.status(3)->started_s;
  EXPECT_LE(s2, s1);  // high priority ran first
  EXPECT_LE(s1, s3);  // FIFO within equal priority
  // New submissions allocate past the recovered ids.
  const auto out = srv.submit(demo_spec(200, 20));
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.id, 4u);
  srv.shutdown(true);
  fs::remove_all(state);
}

TEST(PlacementServerRecovery, CleanShutdownMarkerMakesTheNextStartClean) {
  const fs::path state = fresh_dir("clean_state");
  const std::string journal_path = (state / "journal.xpjl").string();
  {
    ServerConfig cfg;
    cfg.max_concurrency = 1;
    cfg.state_dir = state.string();
    PlacementServer srv(cfg);
    const auto out = srv.submit(demo_spec(200, 30));
    ASSERT_TRUE(out.ok);
    ASSERT_TRUE(srv.wait(out.id, 120.0).has_value());
    srv.shutdown(/*drain=*/true);
  }
  {
    const io::JournalReplay replay = io::read_journal(journal_path);
    ASSERT_FALSE(replay.records.empty());
    EXPECT_EQ(replay.records.back().type,
              static_cast<std::uint32_t>(JournalEvent::kCleanShutdown));
  }
  // The next start sees the marker: no recovery, truncated journal, and the
  // previous lifetime's records are gone.
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  PlacementServer srv(cfg);
  const auto s = srv.stats();
  EXPECT_EQ(s.recovered, 0u);
  EXPECT_TRUE(s.journal_active);
  EXPECT_EQ(s.journal_records, 0u);
  EXPECT_FALSE(srv.status(1).has_value());
  srv.shutdown(true);
  fs::remove_all(state);
}

TEST(PlacementServerRecovery, RestartRestoresTerminalRecordsVerbatim) {
  const fs::path state = fresh_dir("terminal_state");
  JobRecord done;
  {
    ServerConfig cfg;
    cfg.max_concurrency = 1;
    cfg.state_dir = state.string();
    PlacementServer srv(cfg);
    const auto out = srv.submit(demo_spec(200, 30));
    ASSERT_TRUE(out.ok);
    const auto rec = srv.wait(out.id, 120.0);
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->state, JobState::kDone);
    done = *rec;
  }
  // The destructor appended a clean marker (every job was terminal). Strip
  // it to simulate a kill that landed after the finish record but before the
  // shutdown path ran.
  {
    const io::JournalReplay replay = io::read_journal(journal_for(state));
    std::vector<io::JournalRecord> records = replay.records;
    ASSERT_FALSE(records.empty());
    if (records.back().type ==
        static_cast<std::uint32_t>(JournalEvent::kCleanShutdown)) {
      records.pop_back();
    }
    ASSERT_TRUE(io::rewrite_journal(journal_for(state), records));
  }

  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  PlacementServer srv(cfg);
  EXPECT_EQ(srv.stats().recovered, 0u);  // nothing live, only history
  const auto rec = srv.status(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_TRUE(rec->recovered);
  // Every journaled terminal field comes back bit for bit.
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  EXPECT_EQ(rec->stop_reason, done.stop_reason);
  EXPECT_TRUE(same_bits(rec->hpwl, done.hpwl));
  EXPECT_TRUE(same_bits(rec->overflow, done.overflow));
  EXPECT_EQ(rec->iterations, done.iterations);
  EXPECT_TRUE(same_bits(rec->gp_seconds, done.gp_seconds));
  EXPECT_TRUE(same_bits(rec->dp_hpwl, done.dp_hpwl));
  EXPECT_EQ(rec->legalized, done.legalized);
  EXPECT_EQ(rec->error, done.error);
  EXPECT_EQ(srv.stats().completed, 1u);
  srv.shutdown(true);
  fs::remove_all(state);
}

TEST(PlacementServerRecovery, DivergedJobIsRetriedWithBackoffAndRetune) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.max_retries = 2;
  cfg.retry_backoff_s = 0.01;  // keep the test fast
  cfg.faults.diverge_jobs = {1};
  PlacementServer srv(cfg);

  const auto out = srv.submit(demo_spec(300, 60));
  ASSERT_TRUE(out.ok) << out.error;
  const auto rec = srv.wait(out.id, 300.0);
  ASSERT_TRUE(rec.has_value());
  // Attempt 0 diverged (injected), the supervisor re-admitted with backoff
  // and the λ/step retune, and attempt 1 — fault-free by the injection
  // contract — completed.
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_EQ(rec->attempt, 1);
  ASSERT_EQ(rec->attempts.size(), 1u);
  EXPECT_EQ(rec->attempts[0].number, 0);
  EXPECT_EQ(rec->attempts[0].outcome, "diverged");
  EXPECT_GT(rec->attempts[0].backoff_s, 0.0);
  EXPECT_TRUE(std::isfinite(rec->hpwl));
  EXPECT_GT(rec->hpwl, 0.0);

  const auto s = srv.stats();
  EXPECT_EQ(s.retries, 1u);
  EXPECT_EQ(s.completed, 1u);
  srv.shutdown(true);
}

TEST(PlacementServerRecovery, SaturationShedsStrictlyLowerPriorityWork) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.queue_capacity = 1;
  PlacementServer srv(cfg);

  // Occupy the single worker slot with a long job, then fill the queue.
  // Wait until the worker actually popped it (streamed events prove the GP
  // loop is running) so the queue is genuinely empty before the next submit.
  const auto running = srv.submit(demo_spec(1500, 5000));
  ASSERT_TRUE(running.ok);
  const auto batch = srv.events(running.id, 0, 60.0);
  ASSERT_TRUE(batch.has_value());
  ASSERT_FALSE(batch->terminal);
  JobSpec low = demo_spec(300, 40);
  low.priority = 0;
  const auto victim = srv.submit(low);
  ASSERT_TRUE(victim.ok);

  // Higher-priority work displaces the weakest queued job...
  JobSpec high = demo_spec(300, 40);
  high.priority = 5;
  const auto winner = srv.submit(high);
  ASSERT_TRUE(winner.ok) << winner.error;
  const auto shed_rec = srv.status(victim.id);
  ASSERT_TRUE(shed_rec.has_value());
  EXPECT_EQ(shed_rec->state, JobState::kShed);
  EXPECT_NE(shed_rec->error.find("shed"), std::string::npos);
  EXPECT_EQ(srv.stats().shed, 1u);

  // ...but equal priority does not: no strictly-lower victim → plain reject.
  const auto rejected = srv.submit(high);
  EXPECT_FALSE(rejected.ok);
  EXPECT_NE(srv.status(winner.id)->state, JobState::kShed);

  std::string err;
  ASSERT_TRUE(srv.cancel(running.id, &err)) << err;
  srv.shutdown(true);
}

TEST(PlacementServerRecovery, DegradedJournalDegradesAdmissionNotService) {
  const fs::path state = fresh_dir("degraded_state");
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  cfg.faults.disk_full = true;  // every journal append fails (ENOSPC story)
  PlacementServer srv(cfg);

  // The first submit's journal append fails → durability degrades, but the
  // job itself still runs to completion from memory.
  const auto out = srv.submit(demo_spec(200, 30));
  ASSERT_TRUE(out.ok) << out.error;
  const auto rec = srv.wait(out.id, 120.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_TRUE(srv.stats().journal_degraded);

  // With durability gone and nothing sheddable queued, admission rejects.
  const auto refused = srv.submit(demo_spec(200, 30));
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("journal"), std::string::npos);
  srv.shutdown(true);
  fs::remove_all(state);
}

}  // namespace
}  // namespace xplace::server
