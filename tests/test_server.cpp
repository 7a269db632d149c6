// Tests for the serving subsystem (DESIGN.md §11): JSON + line framing,
// protocol validation, the bounded priority queue, cooperative cancellation
// through the placer, the in-process PlacementServer (admission, cancel,
// deadline, determinism, concurrent soak), and the UDS daemon end to end.
//
// Determinism note: every job here pins an explicit thread count (the server
// default is 1), so the suite is insensitive to XPLACE_THREADS and stays
// bit-exact in the tier1-mt CI lane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/placer.h"
#include "dp/detailed_placer.h"
#include "io/bookshelf.h"
#include "io/checkpoint_io.h"
#include "io/generator.h"
#include "lg/abacus.h"
#include "server/json.h"
#include "server/job_queue.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/uds.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/stop_token.h"

namespace xplace::server {
namespace {

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, ParseDumpRoundTrip) {
  const std::string doc =
      R"({"a":1,"b":-2.5,"s":"x\"y\\z","t":true,"n":null,"arr":[1,2,3],"o":{"k":"v"}})";
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::parse(doc, &v, &error)) << error;
  EXPECT_EQ(v.get_number("a", 0), 1.0);
  EXPECT_EQ(v.get_number("b", 0), -2.5);
  EXPECT_EQ(v.get_string("s"), "x\"y\\z");
  EXPECT_TRUE(v.get_bool("t", false));
  EXPECT_TRUE(v.has("n"));
  // Dump → parse is stable.
  json::Value v2;
  ASSERT_TRUE(json::parse(v.dump(), &v2, &error)) << error;
  EXPECT_EQ(v.dump(), v2.dump());
}

TEST(Json, IntegersDumpExactly) {
  json::Object o;
  o.emplace_back("id", static_cast<std::uint64_t>(123456789));
  EXPECT_EQ(json::Value(std::move(o)).dump(), "{\"id\":123456789}");
}

TEST(Json, MalformedInputsAreRejectedWithPosition) {
  const char* bad[] = {"",      "{",        "[1,2",    "{\"a\":}",
                       "tru",   "\"unterminated", "{\"a\":1,}", "01",
                       "1 2",   "{\"a\" 1}"};
  for (const char* doc : bad) {
    json::Value v;
    std::string error;
    EXPECT_FALSE(json::parse(doc, &v, &error)) << doc;
    EXPECT_NE(error.find("offset"), std::string::npos) << doc << ": " << error;
  }
}

TEST(Json, UnicodeEscapes) {
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::parse(R"({"s":"Aé😀"})", &v, &error))
      << error;
  EXPECT_EQ(v.get_string("s"), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, DepthCapStopsRecursion) {
  std::string deep(100, '[');
  deep.append(100, ']');
  json::Value v;
  std::string error;
  EXPECT_FALSE(json::parse(deep, &v, &error));
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

TEST(LineReader, SplitsPartialAndBatchedFeeds) {
  LineReader r;
  std::string line;
  r.feed("hel", 3);
  EXPECT_EQ(r.next(&line), LineReader::Pop::kNeedMore);
  r.feed("lo\nwor", 6);
  ASSERT_EQ(r.next(&line), LineReader::Pop::kLine);
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(r.next(&line), LineReader::Pop::kNeedMore);
  r.feed("ld\r\nthird\n", 10);
  ASSERT_EQ(r.next(&line), LineReader::Pop::kLine);
  EXPECT_EQ(line, "world");  // CRLF tolerated
  ASSERT_EQ(r.next(&line), LineReader::Pop::kLine);
  EXPECT_EQ(line, "third");
}

TEST(LineReader, OversizedLineInOneFeedResyncs) {
  LineReader r;
  std::string payload(kMaxLineBytes + 10, 'x');
  payload += "\nnext\n";
  r.feed(payload.data(), payload.size());
  std::string line;
  EXPECT_EQ(r.next(&line), LineReader::Pop::kOversized);
  ASSERT_EQ(r.next(&line), LineReader::Pop::kLine);
  EXPECT_EQ(line, "next");
}

TEST(LineReader, OversizedLineAcrossFeedsReportsOnceAndResyncs) {
  LineReader r;
  const std::string chunk(kMaxLineBytes, 'y');  // no newline yet
  std::string line;
  r.feed(chunk.data(), chunk.size());
  r.feed(chunk.data(), chunk.size());
  EXPECT_EQ(r.next(&line), LineReader::Pop::kOversized);
  r.feed(chunk.data(), chunk.size());  // still the same oversized line
  EXPECT_EQ(r.next(&line), LineReader::Pop::kNeedMore);
  r.feed("tail\nok\n", 8);  // newline ends the monster; "ok" survives
  ASSERT_EQ(r.next(&line), LineReader::Pop::kLine);
  EXPECT_EQ(line, "ok");
}

// ---------------------------------------------------------------------------
// Protocol requests
// ---------------------------------------------------------------------------

TEST(Protocol, SubmitRoundTripsThroughBuildAndParse) {
  Request req;
  req.cmd = Command::kSubmit;
  req.spec.demo_cells = 1234;
  req.spec.demo_seed = 7;
  req.spec.max_iters = 321;
  req.spec.grid = 64;
  req.spec.threads = 2;
  req.spec.full_flow = false;
  req.spec.priority = 5;
  req.spec.deadline_s = 12.5;
  req.spec.label = "soak_a";

  Request out;
  std::string error;
  ASSERT_TRUE(parse_request(build_request(req), &out, &error)) << error;
  EXPECT_EQ(out.cmd, Command::kSubmit);
  EXPECT_EQ(out.spec.demo_cells, 1234);
  EXPECT_EQ(out.spec.demo_seed, 7u);
  EXPECT_EQ(out.spec.max_iters, 321);
  EXPECT_EQ(out.spec.grid, 64);
  EXPECT_EQ(out.spec.threads, 2);
  EXPECT_FALSE(out.spec.full_flow);
  EXPECT_EQ(out.spec.priority, 5);
  EXPECT_EQ(out.spec.deadline_s, 12.5);
  EXPECT_EQ(out.spec.label, "soak_a");
}

TEST(Protocol, EveryCommandRoundTrips) {
  for (const Command cmd :
       {Command::kStatus, Command::kCancel, Command::kResult, Command::kEvents,
        Command::kStats, Command::kShutdown}) {
    Request req;
    req.cmd = cmd;
    req.id = 42;
    req.from_seq = 17;
    req.wait = true;
    req.timeout_s = 7.5;
    req.drain = false;
    Request out;
    std::string error;
    ASSERT_TRUE(parse_request(build_request(req), &out, &error))
        << to_string(cmd) << ": " << error;
    EXPECT_EQ(out.cmd, cmd);
    if (cmd == Command::kEvents) {
      EXPECT_EQ(out.from_seq, 17u);
      // Regression: events requests must carry their timeout budget — the
      // daemon otherwise streams on its 60s default.
      EXPECT_EQ(out.timeout_s, 7.5);
    }
    if (cmd == Command::kResult) {
      EXPECT_TRUE(out.wait);
      EXPECT_EQ(out.timeout_s, 7.5);
    }
  }
}

TEST(Protocol, RejectsBadRequests) {
  Request req;
  std::string error;
  EXPECT_FALSE(parse_request("not json", &req, &error));
  EXPECT_NE(error.find("malformed JSON"), std::string::npos);
  EXPECT_FALSE(parse_request("[1,2]", &req, &error));
  EXPECT_FALSE(parse_request("{\"cmd\":\"fly\"}", &req, &error));
  EXPECT_NE(error.find("unknown command"), std::string::npos);
  EXPECT_FALSE(parse_request("{\"cmd\":\"cancel\"}", &req, &error));
  EXPECT_NE(error.find("requires \"id\""), std::string::npos);
  EXPECT_FALSE(parse_request("{\"cmd\":\"status\",\"id\":1.5}", &req, &error));
  EXPECT_FALSE(parse_request("{\"cmd\":\"status\",\"id\":-3}", &req, &error));
  EXPECT_FALSE(parse_request("{\"cmd\":\"submit\"}", &req, &error));
  EXPECT_NE(error.find("requires"), std::string::npos);
  EXPECT_FALSE(parse_request(
      "{\"cmd\":\"submit\",\"aux\":\"a.aux\",\"demo_cells\":10}", &req,
      &error));
  EXPECT_FALSE(parse_request(
      "{\"cmd\":\"submit\",\"demo_cells\":10,\"max_iters\":0}", &req, &error));
  EXPECT_FALSE(parse_request(
      "{\"cmd\":\"submit\",\"demo_cells\":10,\"deadline_s\":-1}", &req,
      &error));
}

// ---------------------------------------------------------------------------
// StopToken
// ---------------------------------------------------------------------------

TEST(StopToken, CancelAndDeadline) {
  StopToken t;
  EXPECT_EQ(t.check(), StopCause::kNone);
  EXPECT_EQ(poll_stop(nullptr), StopCause::kNone);

  t.set_timeout(3600.0);
  EXPECT_EQ(t.check(), StopCause::kNone);  // far future
  t.request_cancel();
  EXPECT_EQ(t.check(), StopCause::kCancelled);  // cancel wins over deadline

  StopToken d;
  d.set_timeout(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(d.check(), StopCause::kDeadline);
  EXPECT_EQ(d.check(), StopCause::kDeadline);  // fired tokens stay fired
}

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(JobQueue, OrdersByPriorityThenDeadlineThenFifo) {
  JobQueue q(16);
  auto push = [&](std::uint64_t id, int prio, double deadline) {
    QueuedJob j;
    j.id = id;
    j.priority = prio;
    j.deadline = deadline;
    ASSERT_TRUE(q.push(j));
  };
  push(1, 0, QueuedJob::kNoDeadline);
  push(2, 5, QueuedJob::kNoDeadline);
  push(3, 5, 100.0);  // same priority, earlier deadline → before 2
  push(4, 0, QueuedJob::kNoDeadline);  // FIFO after 1

  QueuedJob out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 1u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 4u);
}

TEST(JobQueue, RejectsWhenFullAndSupportsRemove) {
  JobQueue q(2);
  QueuedJob j;
  j.id = 1;
  EXPECT_TRUE(q.push(j));
  j.id = 2;
  EXPECT_TRUE(q.push(j));
  j.id = 3;
  EXPECT_FALSE(q.push(j));  // reject-on-full backpressure
  EXPECT_TRUE(q.remove(2));
  EXPECT_FALSE(q.remove(2));  // already gone
  j.id = 3;
  EXPECT_TRUE(q.push(j));  // slot freed
  EXPECT_EQ(q.size(), 2u);
}

TEST(JobQueue, CloseDrainsThenUnblocksPoppers) {
  JobQueue q(4);
  QueuedJob j;
  j.id = 9;
  ASSERT_TRUE(q.push(j));
  q.close();
  EXPECT_FALSE(q.push(j));  // closed
  QueuedJob out;
  EXPECT_TRUE(q.pop(&out));  // queued entries still drain
  EXPECT_EQ(out.id, 9u);
  EXPECT_FALSE(q.pop(&out));  // closed and empty → popper exits
}

// ---------------------------------------------------------------------------
// Cooperative stop through the placer (satellite regression)
// ---------------------------------------------------------------------------

db::Database small_design(std::size_t cells, std::uint64_t seed = 5) {
  io::GeneratorSpec spec;
  spec.name = "srv";
  spec.num_cells = cells;
  spec.num_nets = cells + cells / 20;
  spec.seed = seed;
  return io::generate(spec);
}

core::PlacerConfig fast_cfg(int max_iters) {
  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = 64;
  cfg.max_iters = max_iters;
  cfg.threads = 1;
  return cfg;
}

TEST(PlacerStop, CancelMidRunCommitsGuardianBestSnapshot) {
  db::Database db = small_design(600);
  core::GlobalPlacer placer(db, fast_cfg(1000));
  StopToken token;
  placer.set_stop_token(&token);
  // Cancel from the iteration stream itself: fires after enough iterations
  // for the guardian to have captured best-snapshots.
  placer.recorder().set_observer([&](const core::IterationRecord& r) {
    if (r.iter == 80) token.request_cancel();
  });
  const core::GlobalPlaceResult res = placer.run();

  EXPECT_EQ(res.stop_reason, core::StopReason::kCancelled);
  EXPECT_FALSE(res.converged);
  EXPECT_LT(res.iterations, 1000);
  // The cancelled run still committed a usable placement: the guardian's
  // best snapshot, finite everywhere.
  EXPECT_TRUE(placer.guardian().has_snapshot());
  EXPECT_TRUE(std::isfinite(res.hpwl));
  EXPECT_GT(res.hpwl, 0.0);
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    ASSERT_TRUE(std::isfinite(db.x(c)) && std::isfinite(db.y(c))) << c;
  }
}

TEST(PlacerStop, DeadlineStopsTheLoop) {
  // Large enough that the run cannot converge before the deadline fires.
  db::Database db = small_design(2000);
  core::GlobalPlacer placer(db, fast_cfg(100000));
  StopToken token;
  token.set_timeout(0.1);
  placer.set_stop_token(&token);
  const core::GlobalPlaceResult res = placer.run();
  EXPECT_EQ(res.stop_reason, core::StopReason::kDeadline);
  EXPECT_LT(res.iterations, 100000);
  // The timed-out run still wrote a usable placement back into the database.
  EXPECT_TRUE(std::isfinite(res.hpwl));
  EXPECT_GT(res.hpwl, 0.0);
  for (std::size_t c = 0; c < db.num_movable(); ++c) {
    ASSERT_TRUE(std::isfinite(db.x(c)) && std::isfinite(db.y(c))) << c;
  }
}

TEST(PlacerStop, DetailedPlaceHonoursPrefiredToken) {
  db::Database db = small_design(400);
  core::GlobalPlacer placer(db, fast_cfg(120));
  (void)placer.run();
  lg::abacus_legalize(db);
  const double legal_hpwl = db.hpwl();

  StopToken token;
  token.request_cancel();
  dp::DetailedPlaceConfig dcfg;
  dcfg.stop = &token;
  const dp::DetailedPlaceResult res = dp::detailed_place(db, dcfg);
  // Pre-fired token: DP exits at the first pass boundary without moving
  // anything, and the placement stays exactly the legal input.
  EXPECT_EQ(res.moves_accepted, 0u);
  EXPECT_EQ(db.hpwl(), legal_hpwl);
}

// ---------------------------------------------------------------------------
// PlacementServer (in-process)
// ---------------------------------------------------------------------------

JobSpec demo_spec(long cells, int iters, bool full_flow = false) {
  JobSpec s;
  s.demo_cells = cells;
  s.max_iters = iters;
  s.full_flow = full_flow;
  return s;
}

TEST(PlacementServer, RunsJobToCompletionAndStreamsEvents) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);

  const auto out = srv.submit(demo_spec(300, 60));
  ASSERT_TRUE(out.ok) << out.error;
  const auto rec = srv.wait(out.id, 120.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_TRUE(std::isfinite(rec->hpwl));
  EXPECT_GT(rec->hpwl, 0.0);
  EXPECT_GT(rec->iterations, 0);
  EXPECT_GE(rec->finished_s, rec->started_s);

  const auto batch = srv.events(out.id, 0, 5.0);
  ASSERT_TRUE(batch.has_value());
  EXPECT_TRUE(batch->terminal);
  ASSERT_FALSE(batch->events.empty());
  for (std::size_t i = 1; i < batch->events.size(); ++i) {
    EXPECT_EQ(batch->events[i].seq, batch->events[i - 1].seq + 1);
    EXPECT_GT(batch->events[i].iter, batch->events[i - 1].iter);
  }
  EXPECT_EQ(batch->next_seq, batch->events.back().seq + 1);

  EXPECT_FALSE(srv.status(9999).has_value());
  srv.shutdown(/*drain=*/true);
  const auto s = srv.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(PlacementServer, ServedJobsReproduceDirectRunBitForBit) {
  // The acceptance determinism check: the same demo design through the
  // daemon path twice, and once directly via the place_bookshelf code path,
  // must agree on HPWL to the last bit (thread count fixed at 1).
  const long cells = 400;
  const int iters = 100;

  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  double served_hpwl[2] = {0, 0};
  double served_dp[2] = {0, 0};
  for (int round = 0; round < 2; ++round) {
    const auto out = srv.submit(demo_spec(cells, iters, /*full_flow=*/true));
    ASSERT_TRUE(out.ok) << out.error;
    const auto rec = srv.wait(out.id, 300.0);
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->state, JobState::kDone);
    EXPECT_TRUE(rec->legalized);
    served_hpwl[round] = rec->hpwl;
    served_dp[round] = rec->dp_hpwl;
  }
  srv.shutdown(true);
  EXPECT_EQ(std::memcmp(&served_hpwl[0], &served_hpwl[1], sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&served_dp[0], &served_dp[1], sizeof(double)), 0);

  // Direct run, replicating the demo job's construction path exactly.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "xplace_test_server_direct";
  fs::create_directories(dir);
  io::GeneratorSpec gen;
  gen.name = "demo";
  gen.num_cells = static_cast<std::size_t>(cells);
  gen.num_nets = gen.num_cells + gen.num_cells / 20;
  gen.seed = 11;
  const db::Database generated = io::generate(gen);
  io::write_bookshelf(generated, dir.string(), "demo");
  db::Database db = io::read_bookshelf_aux((dir / "demo.aux").string());
  core::PlacerConfig pcfg = core::PlacerConfig::xplace();
  pcfg.max_iters = iters;
  pcfg.threads = 1;
  core::GlobalPlacer placer(db, pcfg);
  const core::GlobalPlaceResult gp = placer.run();
  lg::abacus_legalize(db);
  dp::detailed_place(db);
  std::error_code ec;
  fs::remove_all(dir, ec);

  EXPECT_EQ(std::memcmp(&served_hpwl[0], &gp.hpwl, sizeof(double)), 0);
  const double direct_dp = db.hpwl();
  EXPECT_EQ(std::memcmp(&served_dp[0], &direct_dp, sizeof(double)), 0);
}

TEST(PlacementServer, CancelWhileRunningCommitsBestSnapshot) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  const auto out = srv.submit(demo_spec(1500, 5000));
  ASSERT_TRUE(out.ok);

  // Wait for real progress (streamed events prove the GP loop is running),
  // then cancel.
  const auto batch = srv.events(out.id, 0, 60.0);
  ASSERT_TRUE(batch.has_value());
  ASSERT_FALSE(batch->terminal) << "job finished before cancel could land";
  std::string error;
  ASSERT_TRUE(srv.cancel(out.id, &error)) << error;

  const auto rec = srv.wait(out.id, 60.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kCancelled);
  EXPECT_EQ(rec->stop_reason, core::StopReason::kCancelled);
  EXPECT_TRUE(std::isfinite(rec->hpwl));
  EXPECT_GT(rec->hpwl, 0.0);
  EXPECT_LT(rec->iterations, 5000);

  // Cancelling a terminal job is an error, not a crash.
  EXPECT_FALSE(srv.cancel(out.id, &error));
  EXPECT_NE(error.find("terminal"), std::string::npos);
  srv.shutdown(true);
}

TEST(PlacementServer, CancelWhileQueuedNeverRuns) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  const auto running = srv.submit(demo_spec(1500, 5000));
  ASSERT_TRUE(running.ok);
  const auto queued = srv.submit(demo_spec(300, 50));
  ASSERT_TRUE(queued.ok);

  std::string error;
  ASSERT_TRUE(srv.cancel(queued.id, &error)) << error;
  const auto rec = srv.status(queued.id);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kCancelled);
  EXPECT_EQ(rec->iterations, 0);
  EXPECT_EQ(rec->started_s, 0.0);

  ASSERT_TRUE(srv.cancel(running.id, &error)) << error;
  srv.shutdown(true);
}

TEST(PlacementServer, DeadlineExpiredInQueueIsNeverRun) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  // Occupy the only slot long enough for the second job's deadline to lapse
  // while it is still queued. The doomed job carries a deadline so it sorts
  // AHEAD of the blocker — wait until the blocker is actually running before
  // submitting it, or the worker could pop the doomed job first.
  const auto blocker = srv.submit(demo_spec(1500, 5000));
  ASSERT_TRUE(blocker.ok);
  for (int i = 0; i < 500; ++i) {
    if (srv.status(blocker.id)->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(srv.status(blocker.id)->state, JobState::kRunning);
  JobSpec doomed = demo_spec(300, 50);
  doomed.deadline_s = 0.05;
  const auto out = srv.submit(doomed);
  ASSERT_TRUE(out.ok);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::string error;
  ASSERT_TRUE(srv.cancel(blocker.id, &error)) << error;

  const auto rec = srv.wait(out.id, 60.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kCancelled);
  EXPECT_EQ(rec->stop_reason, core::StopReason::kDeadline);
  EXPECT_EQ(rec->iterations, 0);  // popped after its deadline: never ran
  srv.shutdown(true);
}

TEST(PlacementServer, QueueFullRejectsSubmission) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.queue_capacity = 1;
  PlacementServer srv(cfg);
  const auto a = srv.submit(demo_spec(1500, 5000));
  ASSERT_TRUE(a.ok);
  // Poll until the worker pops A (the queue slot frees up).
  for (int i = 0; i < 200; ++i) {
    if (srv.status(a.id)->state == JobState::kRunning) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(srv.status(a.id)->state, JobState::kRunning);

  const auto b = srv.submit(demo_spec(300, 50));
  ASSERT_TRUE(b.ok);  // fills the single queue slot
  const auto c = srv.submit(demo_spec(300, 50));
  EXPECT_FALSE(c.ok);
  EXPECT_NE(c.error.find("queue full"), std::string::npos);
  EXPECT_EQ(srv.stats().rejected, 1u);

  std::string error;
  srv.cancel(a.id, &error);
  srv.cancel(b.id, &error);
  srv.shutdown(true);
}

TEST(PlacementServer, FailedJobReportsError) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  JobSpec s;
  s.aux = "/nonexistent/never/there.aux";
  const auto out = srv.submit(s);
  ASSERT_TRUE(out.ok);
  const auto rec = srv.wait(out.id, 60.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kFailed);
  EXPECT_FALSE(rec->error.empty());
  srv.shutdown(true);
  EXPECT_EQ(srv.stats().failed, 1u);
}

TEST(PlacementServer, ConcurrentSoakIsDeterministic) {
  // Four identical jobs over two slots: all must finish and agree on HPWL
  // to the last bit — concurrency must not leak into results.
  ServerConfig cfg;
  cfg.max_concurrency = 2;
  PlacementServer srv(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    JobSpec s = demo_spec(400, 80);
    s.label = "soak" + std::to_string(i);
    const auto out = srv.submit(s);
    ASSERT_TRUE(out.ok) << out.error;
    ids.push_back(out.id);
  }
  std::vector<double> hpwl;
  for (const std::uint64_t id : ids) {
    const auto rec = srv.wait(id, 300.0);
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->state, JobState::kDone) << rec->error;
    hpwl.push_back(rec->hpwl);
  }
  for (std::size_t i = 1; i < hpwl.size(); ++i) {
    EXPECT_EQ(std::memcmp(&hpwl[0], &hpwl[i], sizeof(double)), 0) << i;
  }
  srv.shutdown(true);
  const auto s = srv.stats();  // after shutdown: every lease returned
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(s.threads_leased, 0u);
}

TEST(PlacementServer, ShutdownDrainFinishesQueuedWork) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  const auto a = srv.submit(demo_spec(300, 40));
  const auto b = srv.submit(demo_spec(300, 40));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  srv.shutdown(/*drain=*/true);  // blocks until both are done
  EXPECT_EQ(srv.status(a.id)->state, JobState::kDone);
  EXPECT_EQ(srv.status(b.id)->state, JobState::kDone);
  EXPECT_FALSE(srv.accepting());
  const auto late = srv.submit(demo_spec(300, 40));
  EXPECT_FALSE(late.ok);
}

TEST(PlacementServer, ShutdownNoDrainCancelsEverything) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  const auto a = srv.submit(demo_spec(1500, 5000));
  const auto b = srv.submit(demo_spec(1500, 5000));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  srv.shutdown(/*drain=*/false);
  EXPECT_TRUE(is_terminal(srv.status(a.id)->state));
  EXPECT_EQ(srv.status(b.id)->state, JobState::kCancelled);
  EXPECT_EQ(srv.status(b.id)->iterations, 0);
}

TEST(PlacementServer, TerminalRecordsAreEvictedBeyondCapacity) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.result_capacity = 2;
  PlacementServer srv(cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    const auto out = srv.submit(demo_spec(300, 30));
    ASSERT_TRUE(out.ok);
    ids.push_back(out.id);
    ASSERT_TRUE(srv.wait(out.id, 120.0).has_value());
  }
  srv.shutdown(true);
  EXPECT_FALSE(srv.status(ids[0]).has_value());  // evicted FIFO
  EXPECT_TRUE(srv.status(ids[1]).has_value());
  EXPECT_TRUE(srv.status(ids[2]).has_value());
}

TEST(PlacementServer, SpillDirProducesLoadableCheckpoints) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("xplace_spill_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.spill_dir = dir.string();
  cfg.spill_period = 20;
  PlacementServer srv(cfg);

  const auto out = srv.submit(demo_spec(300, 60));
  ASSERT_TRUE(out.ok) << out.error;
  const auto rec = srv.wait(out.id, 120.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kDone);
  ASSERT_FALSE(rec->spill_path.empty());
  ASSERT_TRUE(std::filesystem::exists(rec->spill_path)) << rec->spill_path;
  // The spilled XPCK is a real checkpoint: it loads, validates, and matches
  // the job's design shape.
  const core::RunCheckpoint ck = io::read_checkpoint(rec->spill_path);
  EXPECT_EQ(ck.n_movable, 300u);
  EXPECT_GT(ck.next_iter, 0);
  EXPECT_TRUE(std::isfinite(ck.hpwl));
  srv.shutdown(true);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// UDS daemon end to end
// ---------------------------------------------------------------------------

class UdsDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = (std::filesystem::temp_directory_path() /
                    ("xplace_test_" + std::to_string(::getpid()) + ".sock"))
                       .string();
    ServerConfig cfg;
    cfg.max_concurrency = 2;
    srv_ = std::make_unique<PlacementServer>(cfg);
    daemon_ = std::thread([this] { serve(*srv_, socket_path_); });
    // Wait for the listener to come up.
    for (int i = 0; i < 200; ++i) {
      UdsStream probe = UdsStream::connect(socket_path_);
      if (probe.valid()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "daemon never started listening";
  }

  void TearDown() override {
    if (daemon_.joinable()) {
      UdsStream s = UdsStream::connect(socket_path_);
      if (s.valid()) {
        Request req;
        req.cmd = Command::kShutdown;
        req.drain = false;
        s.write_line(build_request(req));
        std::string line;
        bool oversized = false;
        s.read_line(&line, &oversized);
      }
      daemon_.join();
    }
  }

  /// One-line request/response helper; returns the parsed response.
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

  std::string socket_path_;
  std::unique_ptr<PlacementServer> srv_;
  std::thread daemon_;
};

TEST_F(UdsDaemonTest, SubmitResultCancelOverTheSocket) {
  Request submit;
  submit.cmd = Command::kSubmit;
  submit.spec = demo_spec(300, 50);
  submit.spec.label = "uds_done";
  json::Value resp = rpc(build_request(submit));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  const auto id = static_cast<std::uint64_t>(resp.get_number("id", 0));
  ASSERT_GT(id, 0u);

  Request result;
  result.cmd = Command::kResult;
  result.id = id;
  result.wait = true;
  result.timeout_s = 120.0;
  resp = rpc(build_request(result));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();
  EXPECT_EQ(resp.get_string("state"), "done");
  EXPECT_GT(resp.get_number("hpwl", 0), 0.0);

  // Second job: cancel it mid-run through the socket.
  submit.spec = demo_spec(1500, 5000);
  submit.spec.label = "uds_cancelled";
  resp = rpc(build_request(submit));
  ASSERT_TRUE(resp.get_bool("ok", false));
  const auto cid = static_cast<std::uint64_t>(resp.get_number("id", 0));

  // Let it make progress, then cancel.
  {
    UdsStream es = UdsStream::connect(socket_path_);
    ASSERT_TRUE(es.valid());
    Request events;
    events.cmd = Command::kEvents;
    events.id = cid;
    events.timeout_s = 60.0;
    ASSERT_TRUE(es.write_line(build_request(events)));
    std::string line;
    bool oversized = false;
    ASSERT_TRUE(es.read_line(&line, &oversized));  // first streamed event
    json::Value ev;
    std::string error;
    ASSERT_TRUE(json::parse(line, &ev, &error)) << line;
    EXPECT_TRUE(ev.has("event"));
  }
  Request cancel;
  cancel.cmd = Command::kCancel;
  cancel.id = cid;
  resp = rpc(build_request(cancel));
  ASSERT_TRUE(resp.get_bool("ok", false)) << resp.dump();

  result.id = cid;
  resp = rpc(build_request(result));
  ASSERT_TRUE(resp.get_bool("ok", false));
  EXPECT_EQ(resp.get_string("state"), "cancelled");
  EXPECT_EQ(resp.get_string("stop_reason"), "cancelled");
  EXPECT_GT(resp.get_number("hpwl", 0), 0.0);  // best-snapshot placement
}

TEST_F(UdsDaemonTest, MalformedAndOversizedLinesGetErrorsNotDisconnects) {
  UdsStream s = UdsStream::connect(socket_path_);
  ASSERT_TRUE(s.valid());
  std::string line;
  bool oversized = false;

  ASSERT_TRUE(s.write_line("this is not json"));
  ASSERT_TRUE(s.read_line(&line, &oversized));
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::parse(line, &v, &error));
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_NE(v.get_string("error").find("malformed"), std::string::npos);

  // Oversized line: the daemon answers with an error and keeps the
  // connection usable for the next (valid) request.
  ASSERT_TRUE(s.write_line(std::string(kMaxLineBytes + 100, 'z')));
  ASSERT_TRUE(s.read_line(&line, &oversized));
  ASSERT_TRUE(json::parse(line, &v, &error));
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_NE(v.get_string("error").find("exceeds"), std::string::npos);

  Request stats;
  stats.cmd = Command::kStats;
  ASSERT_TRUE(s.write_line(build_request(stats)));
  ASSERT_TRUE(s.read_line(&line, &oversized));
  ASSERT_TRUE(json::parse(line, &v, &error));
  EXPECT_TRUE(v.get_bool("ok", false)) << line;
  EXPECT_TRUE(v.has("queue_capacity"));
}

TEST_F(UdsDaemonTest, StatusOfUnknownJobIsAnError) {
  Request status;
  status.cmd = Command::kStatus;
  status.id = 424242;
  const json::Value v = rpc(build_request(status));
  EXPECT_FALSE(v.get_bool("ok", true));
  EXPECT_NE(v.get_string("error").find("unknown"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Observability plane (DESIGN.md §12)
// ---------------------------------------------------------------------------

/// RAII: leaves the global tracer disabled and cleared however a test exits.
struct TracerGuard {
  ~TracerGuard() {
    telemetry::Tracer::global().disable();
    telemetry::Tracer::global().clear();
  }
};

TEST(PlacementServer, ServedJobSpansCarryItsTraceId) {
  TracerGuard guard;
  telemetry::Tracer::global().enable(1 << 14);

  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  JobSpec spec = demo_spec(300, 40, /*full_flow=*/true);
  spec.label = "traced";
  const auto out = srv.submit(spec);
  ASSERT_TRUE(out.ok) << out.error;
  const auto rec = srv.wait(out.id, 120.0);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->state, JobState::kDone);
  ASSERT_GT(rec->trace_id, 0u);
  srv.shutdown(/*drain=*/true);

  // The tentpole acceptance: one coherent per-job timeline — scheduler spans
  // (queue wait, lease, job root) AND flow spans (GP run + iterations, LG,
  // DP) all tagged with the job's trace id, regardless of recording thread.
  std::map<std::string, int> tagged;
  for (const auto& span : telemetry::Tracer::global().snapshot()) {
    if (span.trace_id == rec->trace_id) ++tagged[span.name];
  }
  for (const char* name :
       {"serve.queue_wait", "serve.lease_acquire", "serve.job",
        "serve.load_design", "gp.run", "gp.iter", "serve.lg", "lg.abacus",
        "serve.dp", "dp.run"}) {
    EXPECT_GE(tagged[name], 1) << "span not tagged with the job id: " << name;
  }
  EXPECT_EQ(tagged["gp.iter"], rec->iterations);

  // The label table maps the id to its human-readable track name.
  bool labeled = false;
  for (const auto& [id, label] : telemetry::Tracer::global().trace_labels()) {
    if (id == rec->trace_id) {
      EXPECT_NE(label.find("traced"), std::string::npos);
      labeled = true;
    }
  }
  EXPECT_TRUE(labeled);
}

TEST(PlacementServer, StatsReportSloLatencyPercentiles) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  // The SLO histograms are global-registry entries shared across the test
  // process: assert deltas, not absolutes.
  const PlacementServer::Stats before = srv.stats();

  for (int i = 0; i < 2; ++i) {
    const auto out = srv.submit(demo_spec(300, 30));
    ASSERT_TRUE(out.ok);
    const auto rec = srv.wait(out.id, 120.0);
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->state, JobState::kDone);
  }
  const PlacementServer::Stats after = srv.stats();
  srv.shutdown(/*drain=*/true);

  EXPECT_EQ(after.e2e.count, before.e2e.count + 2);
  EXPECT_EQ(after.run.count, before.run.count + 2);
  EXPECT_EQ(after.queue_wait.count, before.queue_wait.count + 2);
  EXPECT_GT(after.e2e.p50, 0.0);
  EXPECT_GT(after.run.p50, 0.0);
  EXPECT_LE(after.e2e.p50, after.e2e.p95);
  EXPECT_LE(after.e2e.p95, after.e2e.p99);
  EXPECT_EQ(after.deadline_missed, before.deadline_missed);
}

TEST(PlacementServer, DeadlineMissesAreCounted) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  const std::uint64_t missed_before = srv.stats().deadline_missed;

  // Expires while queued: the worker pops it past-deadline and never runs it.
  JobSpec spec = demo_spec(1500, 5000);
  spec.deadline_s = 1e-9;
  const auto out = srv.submit(spec);
  ASSERT_TRUE(out.ok);
  const auto rec = srv.wait(out.id, 60.0);
  ASSERT_TRUE(rec.has_value());
  ASSERT_EQ(rec->state, JobState::kCancelled);
  ASSERT_EQ(rec->stop_reason, core::StopReason::kDeadline);
  EXPECT_EQ(srv.stats().deadline_missed, missed_before + 1);
  srv.shutdown(/*drain=*/true);
}

TEST(PlacementServer, EvictionGcsPerJobMetricsAndTraceLabels) {
  TracerGuard guard;
  telemetry::Tracer::global().enable(1 << 14);

  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.result_capacity = 1;
  PlacementServer srv(cfg);

  JobSpec first = demo_spec(300, 20);
  first.label = "gc_victim";
  const auto out1 = srv.submit(first);
  ASSERT_TRUE(out1.ok);
  const auto rec1 = srv.wait(out1.id, 120.0);
  ASSERT_TRUE(rec1.has_value());
  ASSERT_EQ(rec1->state, JobState::kDone);
  const std::uint64_t victim_trace = rec1->trace_id;

  JobSpec second = demo_spec(300, 20);
  second.label = "gc_survivor";
  const auto out2 = srv.submit(second);
  ASSERT_TRUE(out2.ok);
  ASSERT_TRUE(srv.wait(out2.id, 120.0).has_value());
  srv.shutdown(/*drain=*/true);

  // Retention policy: metric families and trace labels live exactly as long
  // as the job record. Job 1 was evicted (capacity 1) → fully GC'd.
  EXPECT_FALSE(srv.status(out1.id).has_value());
  bool victim_metrics = false, survivor_metrics = false;
  for (const auto& [name, g] : telemetry::Registry::global().gauges()) {
    (void)g;
    if (name.rfind("serve.job.gc_victim.", 0) == 0) victim_metrics = true;
    if (name.rfind("serve.job.gc_survivor.", 0) == 0) survivor_metrics = true;
  }
  EXPECT_FALSE(victim_metrics);
  EXPECT_TRUE(survivor_metrics);
  for (const auto& [id, label] : telemetry::Tracer::global().trace_labels()) {
    (void)label;
    EXPECT_NE(id, victim_trace);
  }
}

TEST(Protocol, JobJsonCarriesTraceIdAndDropCount) {
  JobRecord rec;
  rec.id = 3;
  rec.state = JobState::kDone;
  rec.trace_id = 77;
  rec.events_dropped = 5;
  const json::Value v{job_to_json(rec)};
  EXPECT_EQ(v.get_number("trace_id", 0), 77.0);
  EXPECT_EQ(v.get_number("events_dropped", 0), 5.0);

  JobRecord untraced;
  untraced.id = 4;
  const json::Value u{job_to_json(untraced)};
  EXPECT_FALSE(u.has("trace_id"));        // 0 = never assigned: omitted
  EXPECT_FALSE(u.has("events_dropped"));  // nothing dropped: omitted
}

TEST_F(UdsDaemonTest, MetricsVerbReturnsPrometheusText) {
  // Run one job first so the serve.* families exist.
  Request submit;
  submit.cmd = Command::kSubmit;
  submit.spec = demo_spec(300, 20);
  const json::Value sub = rpc(build_request(submit));
  ASSERT_TRUE(sub.get_bool("ok", false)) << sub.dump();
  Request result;
  result.cmd = Command::kResult;
  result.id = static_cast<std::uint64_t>(sub.get_number("id", 0));
  result.wait = true;
  result.timeout_s = 120.0;
  ASSERT_TRUE(rpc(build_request(result)).get_bool("ok", false));

  UdsStream s = UdsStream::connect(socket_path_);
  ASSERT_TRUE(s.valid());
  s.set_max_line(4u << 20);  // the exposition is one long response line
  Request req;
  req.cmd = Command::kMetrics;
  ASSERT_TRUE(s.write_line(build_request(req)));
  std::string line;
  bool oversized = false;
  ASSERT_TRUE(s.read_line(&line, &oversized));
  ASSERT_FALSE(oversized);
  json::Value v;
  std::string error;
  ASSERT_TRUE(json::parse(line, &v, &error)) << error;
  ASSERT_TRUE(v.get_bool("ok", false)) << line;
  const std::string text = v.get_string("metrics");
  // The SLO histogram families with percentile-derivable cumulative buckets,
  // plus the serve counters (stable names — DESIGN.md §12 catalog).
  for (const char* needle :
       {"# TYPE xplace_serve_queue_wait_s histogram",
        "xplace_serve_queue_wait_s_bucket{le=", "xplace_serve_run_s_bucket",
        "xplace_serve_e2e_s_bucket", "xplace_serve_e2e_s_count",
        "xplace_serve_submitted", "xplace_serve_completed"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // Still a JSON-lines connection: a stats request works on the same stream.
  Request stats;
  stats.cmd = Command::kStats;
  ASSERT_TRUE(s.write_line(build_request(stats)));
  ASSERT_TRUE(s.read_line(&line, &oversized));
  ASSERT_TRUE(json::parse(line, &v, &error));
  EXPECT_TRUE(v.get_bool("ok", false));
  EXPECT_TRUE(v.has("latency"));
  EXPECT_TRUE(v.has("events_dropped"));
}

}  // namespace
}  // namespace xplace::server
