// Golden bytes for every on-disk byte format and content hash: one fixed
// instance of each journal payload, one framed journal record, one XPCK
// checkpoint file, and the Bookshelf / demo content hashes. The expected
// values were recorded from the codecs as they stood before the shared byte
// codec replaced them, so a pass proves the formats are byte-identical.
//
// The test names no payload struct where the codec's argument type may
// change: it takes each encoder's parameter type and fills it by member
// name, so it compiles against any struct that keeps those members.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "io/bookshelf.h"
#include "io/checkpoint_io.h"
#include "io/generator.h"
#include "io/journal.h"
#include "server/recovery.h"

namespace xplace::server {
namespace {

namespace fs = std::filesystem;

/// The payload type an `encode_*(const T&)` function takes.
template <typename F>
struct EncodedType;
template <typename T>
struct EncodedType<std::string (*)(const T&)> {
  using type = T;
};

std::string to_hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// Reference FNV-1a 64, independent of the code under test.
std::uint64_t reference_fnv(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("xplace_golden_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(GoldenBytes, SubmitPayload) {
  JobSpec s;
  s.aux = "designs/golden.aux";
  s.demo_cells = 2500;
  s.demo_seed = 42;
  s.design_hash = 0x0123456789abcdefull;
  s.max_iters = 777;
  s.grid = 64;
  s.seed = 9;
  s.target_density = 0.85;
  s.lambda_init = 1e-3;
  s.init_noise_scale = 1.5;
  s.gamma_scale = 0.75;
  s.lambda_scale = 2.0;
  s.threads = 3;
  s.full_flow = false;
  s.priority = -5;
  s.deadline_s = 12.5;
  s.label = "golden";
  s.batch_id = 17;
  s.dedup = true;
  EXPECT_EQ(to_hex(encode_submit(s, 2)),
            "12000000" "64657369676e732f676f6c64656e2e617578"  // aux
            "c409000000000000" "2a00000000000000"  // demo_cells, demo_seed
            "09030000" "40000000" "03000000" "00"  // max_iters .. full_flow
            "fbffffff" "0000000000002940"          // priority, deadline_s
            "06000000" "676f6c64656e" "02000000"   // label, attempt
            "efcdab8967452301" "0900000000000000"  // design_hash, seed
            "333333333333eb3f" "fca9f1d24d62503f"  // density, lambda_init
            "1100000000000000" "01"                // batch_id, dedup
            "000000000000f83f" "000000000000e83f"  // init_noise, gamma scales
            "0000000000000040");                   // lambda_scale
}

TEST(GoldenBytes, FinishPayload) {
  using Finish = EncodedType<decltype(&encode_finish)>::type;
  Finish f;
  f.state = JobState::kCancelled;
  f.stop_reason = core::StopReason::kDeadline;
  f.hpwl = 1.2345678901234567e6;
  f.overflow = 0.37;
  f.iterations = 321;
  f.gp_seconds = 4.25;
  f.dp_hpwl = 9.75e5;
  f.legalized = true;
  f.error = "deadline";
  EXPECT_EQ(to_hex(encode_finish(f)),
            "03000000" "04000000" "8021dfe387d63241" "ae47e17a14aed73f"
            "41010000" "0000000000001140" "0000000030c12d41" "01"
            "08000000" "646561646c696e65");
}

TEST(GoldenBytes, CheckpointAndRetryPayloads) {
  EXPECT_EQ(to_hex(encode_checkpoint(240, "spill/job7.xpck")),
            "f0000000" "0f000000" "7370696c6c2f6a6f62372e7870636b");
  RetryInfo r;
  r.attempt = 1;
  r.backoff_s = 0.625;
  r.reason = "diverged";
  EXPECT_EQ(to_hex(encode_retry(r)),
            "01000000" "000000000000e43f" "08000000" "6469766572676564");
}

TEST(GoldenBytes, DesignRefPayload) {
  using Ref = EncodedType<decltype(&encode_design_ref)>::type;
  Ref d;
  d.demo = true;
  d.aux = "d.aux";
  d.cells = 2000;
  d.seed = 11;
  EXPECT_EQ(to_hex(encode_design_ref(d)),
            "01" "05000000" "642e617578" "d007000000000000"
            "0b00000000000000");
}

TEST(GoldenBytes, BatchPayloads) {
  BatchInfo b;
  b.design_hash = 0xfeedfacecafebeefull;
  b.label = "sweep";
  b.job_ids = {4, 5, 6};
  b.deduped = {0, 1, 0};
  EXPECT_EQ(to_hex(encode_batch(b)),
            "efbefecacefaedfe" "05000000" "7377656570" "03000000"
            "040000000000000000" "050000000000000001"  // (id, deduped)...
            "060000000000000000" "00");               // ..., raced

  BatchRace race;
  race.base_seed = 7;
  race.k = 3;
  race.deadline_s = 30.0;
  race.policy.min_iter = 50;
  race.policy.hpwl_margin = 1.2;
  race.policy.overflow_slack = 0.1;
  race.policy.min_survivors = 2;
  race.policy.no_kill = true;
  b.race = race;
  EXPECT_EQ(to_hex(encode_batch(b)),
            "efbefecacefaedfe" "05000000" "7377656570" "03000000"
            "040000000000000000" "050000000000000001"
            "060000000000000000" "01"
            "0700000000000000" "03000000" "0000000000003e40" "32000000"
            "333333333333f33f" "9a9999999999b93f" "0200000000000000" "01");
}

TEST(GoldenBytes, FramedJournalRecord) {
  const fs::path dir = fresh_dir("frame");
  const std::string path = (dir / "journal.xpjl").string();
  io::JournalRecord rec;
  rec.type = 4;
  rec.job_id = 7;
  rec.time_s = 1234.5;
  rec.payload = "abc";
  ASSERT_TRUE(io::rewrite_journal(path, {rec}));
  EXPECT_EQ(to_hex(slurp(path)),
            "58504a4c" "01000000"                   // magic, version
            "17000000" "04000000" "0700000000000000"  // body_len, type, id
            "00000000004a9340" "616263"             // time_s, payload
            "1d2db5d445a31ac4");                    // FNV-1a of the body
  fs::remove_all(dir);
}

TEST(GoldenBytes, CheckpointFile) {
  core::RunCheckpoint ck;
  ck.design = "golden";
  ck.n_total = 10;
  ck.n_movable = 8;
  ck.optimizer_kind = 1;
  ck.next_iter = 120;
  ck.gamma = 2.5;
  ck.overflow = 0.3;
  ck.best_hpwl = 1e6;
  ck.hpwl = 1.1e6;
  ck.optimizer.put_array("x", {1.0f, 2.0f, 3.0f});
  ck.optimizer.put_array("v", {-0.5f});
  ck.optimizer.put_scalar("lr", 0.01);
  ck.scheduler.put_scalar("lambda", 1e-4);
  const fs::path dir = fresh_dir("xpck");
  const std::string path = (dir / "golden.xpck").string();
  io::write_checkpoint(ck, path);
  const std::string bytes = slurp(path);
  EXPECT_EQ(bytes.size(), 180u);
  EXPECT_EQ(reference_fnv(bytes), 9778467803310227188ull);
  fs::remove_all(dir);
}

TEST(GoldenBytes, ContentHashes) {
  const fs::path dir = fresh_dir("hash");
  const auto put = [&](const char* name, const char* text) {
    std::ofstream(dir / name, std::ios::binary) << text;
  };
  put("g.aux", "RowBasedPlacement : g.nodes g.nets g.pl g.scl\n");
  put("g.nodes",
      "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\n"
      "  a 2 1\n  p 1 1 terminal\n");
  put("g.nets",
      "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\n"
      "NetDegree : 2 n0\n  a I : 0.5 0\n  p O : 0 0\n");
  put("g.pl", "UCLA pl 1.0\na 0 0 : N\np 5 5 : N /FIXED\n");
  put("g.scl",
      "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n"
      " Height : 1\n Sitewidth : 1\n Sitespacing : 1\n Siteorient : 1\n"
      " Sitesymmetry : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n");
  EXPECT_EQ(io::hash_bookshelf_aux((dir / "g.aux").string()),
            3552437011244973121ull);
  EXPECT_EQ(io::demo_content_hash(2000, 11), 799185821910965276ull);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace xplace::server
