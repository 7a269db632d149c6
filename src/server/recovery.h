// Journal record semantics + startup recovery planning for xplace-serve.
//
// The io::Journal layer frames and checksums bytes; this module owns what the
// bytes mean. One record type per job-lifecycle transition:
//
//   kSubmit      full JobSpec + attempt number (attempt > 0 after compaction
//                of a retried job)
//   kStart       a worker slot picked the job up
//   kCheckpoint  a periodic XPCK spill landed on disk (next_iter + path) —
//                the resume point if the process dies now
//   kFinish      terminal state + result fields
//   kCancel      cancel requested (queued-job cancels also get a kFinish;
//                a bare kCancel means the crash hit between cancel and settle)
//   kRetry       the supervisor re-admitted a diverged/alloc-failed job
//                (new attempt number + backoff + reason)
//   kCleanShutdown  drain completed with no jobs outstanding — the next start
//                is a "clean start" (no recovery) iff this is the last record
//
// build_recovery_plan folds a tolerant replay (io::read_journal) into per-job
// effective state: live jobs to re-enqueue in original submit order, running
// jobs' newest XPCK resume points, terminal jobs' records to restore into the
// result store. compaction_records re-emits that folded state so the journal
// on disk stays proportional to the live+retained job set, not to history.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "io/journal.h"
#include "server/design_store.h"
#include "server/job.h"
#include "server/portfolio_racer.h"

namespace xplace::server {

enum class JournalEvent : std::uint32_t {
  kSubmit = 1,
  kStart = 2,
  kCheckpoint = 3,
  kFinish = 4,
  kCancel = 5,
  kRetry = 6,
  kCleanShutdown = 7,
  /// A design became known to the store (upload-design, or the first job
  /// referencing it). The record's job_id slot carries the design's content
  /// hash; the payload carries its source so recovery can re-register it for
  /// lazy re-parse. Not a job record: excluded from max_id.
  kDesignRef = 8,
  /// A submit-batch (or submit-portfolio) landed: the job_id slot carries the
  /// batch id; the payload ties the member job ids to the batch + design hash
  /// and, for a portfolio, carries the race section, so a restart resumes
  /// racing the surviving members under the same policy. (Value 10 was the
  /// separate portfolio record; it is retired, not reused.)
  kBatch = 9,
};

/// Decoded kRetry payload.
struct RetryInfo {
  int attempt = 0;  ///< the attempt number the job is re-admitted as
  double backoff_s = 0.0;
  std::string reason;
};

// ---- payload codecs --------------------------------------------------------
// Each payload is one field list in recovery.cpp that the encoder and the
// decoder both walk (util/bytes.h). A decoder is all-or-nothing: on false
// its outputs are left untouched.
std::string encode_submit(const JobSpec& spec, int attempt);
bool decode_submit(const std::string& payload, JobSpec* spec, int* attempt);

/// kFinish carries the terminal slice of a JobRecord: state, stop reason,
/// GP and full-flow results, and the error text.
std::string encode_finish(const JobRecord& rec);
bool decode_finish(const std::string& payload, JobRecord* rec);

std::string encode_checkpoint(int next_iter, const std::string& path);
bool decode_checkpoint(const std::string& payload, int* next_iter,
                       std::string* path);

std::string encode_retry(const RetryInfo& info);
bool decode_retry(const std::string& payload, RetryInfo* info);

/// kDesignRef carries the design's source (its hash rides in the job_id slot).
std::string encode_design_ref(const DesignStore::SourceRef& ref);
bool decode_design_ref(const std::string& payload,
                       DesignStore::SourceRef* ref);

/// Race section of a kBatch record: present when the batch is a portfolio,
/// K perturbed restarts of one design raced under `policy` (DESIGN.md §14).
struct BatchRace {
  std::uint64_t base_seed = 0;
  std::uint32_t k = 0;
  double deadline_s = 0.0;
  RacePolicy policy;
};

/// Decoded kBatch payload (the batch id rides in the job_id slot).
struct BatchInfo {
  std::uint64_t design_hash = 0;
  std::string label;
  std::vector<std::uint64_t> job_ids;
  std::vector<std::uint8_t> deduped;  ///< per job id: served from cache
  std::optional<BatchRace> race;      ///< set for a raced batch (portfolio)
};

std::string encode_batch(const BatchInfo& info);
bool decode_batch(const std::string& payload, BatchInfo* info);

/// One job's effective state after folding every journal record about it.
struct RecoveredJob {
  /// The record to restore: id, spec, attempt and folded retry history; its
  /// terminal slice (decoded from kFinish) is valid when `terminal`.
  JobRecord rec;
  double submit_time_s = 0.0;  ///< CLOCK_REALTIME at original submit
  bool was_running = false;    ///< started and neither finished nor retried
  bool cancel_requested = false;  ///< bare kCancel with no settling kFinish
  std::string checkpoint_path;    ///< newest spill ("" = none landed)
  int checkpoint_iter = 0;
  bool terminal = false;
};

/// A design the store knew about (possibly evicted); re-registered at
/// startup for lazy re-parse.
struct RecoveredDesign {
  std::uint64_t hash = 0;
  DesignStore::SourceRef source;
};

/// A batch whose membership and race section survive the restart (member
/// jobs recover independently through their own records).
struct RecoveredBatch {
  std::uint64_t id = 0;
  BatchInfo info;
  double submit_time_s = 0.0;
};

struct RecoveryPlan {
  std::vector<RecoveredJob> jobs;  ///< original submit order
  bool clean_shutdown = false;     ///< last record is the clean marker
  bool torn_tail = false;          ///< forwarded from the replay
  bool corrupt = false;
  std::uint64_t max_id = 0;        ///< highest job id seen (id allocation)
  std::size_t records = 0;         ///< trusted records folded
  std::vector<RecoveredDesign> designs;  ///< design-ref records, first-seen order
  std::vector<RecoveredBatch> batches;   ///< batch records, submit order
  std::uint64_t max_batch_id = 0;
};

RecoveryPlan build_recovery_plan(const io::JournalReplay& replay);

/// Re-emits `plan` as a minimal record sequence (per job: submit at its
/// folded attempt, newest checkpoint, terminal finish or dangling cancel) —
/// the compacted journal the daemon rewrites at startup.
std::vector<io::JournalRecord> compaction_records(const RecoveryPlan& plan);

}  // namespace xplace::server
