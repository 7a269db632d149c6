// Resident placement service: bounded priority queue + N-way job scheduler
// over the placement flow, with cooperative cancellation, streamed progress,
// a bounded result store, and graceful drain (DESIGN.md §11).
//
// The server amortizes process setup (SIMD table resolution, telemetry
// registries) across many placements and multiplexes runs the way an
// inference-serving stack wraps a model runtime:
//
//   submit ─▶ JobQueue ─▶ worker slots (max_concurrency threads)
//                              │  each: build db → GlobalPlacer(+StopToken)
//                              │         → [LG → DP] → JobRecord
//                              └─ thread-budget arbiter: a job starts only
//                                 when its worker-thread request fits the
//                                 server-wide budget, so the machine is
//                                 never oversubscribed
//
// Determinism: every job runs with an explicit per-job thread count (its
// spec's, or the server default) and its own ExecutionContext — concurrent
// jobs never share a ThreadPool (PR 3's pool serializes a second dispatcher
// inline, which would make results depend on timing). A job therefore
// produces bit-identical results to a one-shot place_bookshelf run at the
// same config/thread count, regardless of service load.
//
// Transport-free: this class is plain C++ (tests drive it in-process); the
// UDS daemon in uds.h binds it to the JSON-lines protocol.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/journal.h"
#include "server/design_store.h"
#include "server/faults.h"
#include "server/job.h"
#include "server/job_queue.h"
#include "server/portfolio_racer.h"
#include "server/recovery.h"
#include "telemetry/metrics.h"
#include "util/stop_token.h"

namespace xplace::server {

struct ServerConfig {
  std::size_t queue_capacity = 64;   ///< admission bound (reject-on-full)
  std::size_t max_concurrency = 2;   ///< worker slots (jobs in flight)
  /// Worker threads a job runs with when its spec says 0. 1 = serial (the
  /// bitwise-reproducible default).
  int default_job_threads = 1;
  /// Server-wide worker-thread budget the running jobs' thread counts must
  /// fit in; a job waits in its slot until the budget frees up. 0 = derive
  /// as max_concurrency * max(1, default_job_threads).
  std::size_t thread_budget = 0;
  /// Terminal JobRecords retained for status/result queries; older terminal
  /// jobs are evicted FIFO beyond this.
  std::size_t result_capacity = 256;
  /// Per-job ring of streamed iteration events; oldest events drop first
  /// (subscribers see a `dropped` count).
  std::size_t event_capacity = 4096;
  /// When non-empty: periodic GP checkpoint spill per job via the XPCK
  /// writer (io/checkpoint_io.h) into `<spill_dir>/job<id>.xpck`.
  std::string spill_dir;
  int spill_period = 200;  ///< iterations between spill writes

  // ---- durability & self-healing (DESIGN.md §13) ---------------------------
  /// When non-empty: crash-safe operation. The job journal (journal.xpjl)
  /// lives here, spill_dir defaults here, and the constructor replays the
  /// journal — restoring terminal records, re-enqueuing queued jobs in their
  /// original order, and resuming interrupted running jobs from their newest
  /// XPCK spill — before any worker starts.
  std::string state_dir;
  /// Journal disk budget: once the journal on disk exceeds this, admission
  /// switches to the load-shedding path (compaction happens at startup).
  std::size_t journal_max_bytes = 64ull << 20;
  /// Supervised retries: a job that ends `diverged` (or dies to allocation
  /// failure) is re-admitted up to this many times with exponential backoff
  /// and the guardian's compounding λ/step retune. 0 disables.
  int max_retries = 2;
  double retry_backoff_s = 0.5;      ///< base backoff before attempt 1
  double retry_backoff_max_s = 30.0; ///< backoff ceiling
  /// Server-layer fault plan (serve_crash/diverge/journal_torn/disk_full).
  /// Empty → parsed from XPLACE_FAULT at construction.
  ServeFaultPlan faults;

  // ---- design store (DESIGN.md §14) ----------------------------------------
  /// Max resident parsed designs; LRU eviction of unpinned snapshots beyond
  /// this (pinned-while-running designs are exempt).
  std::size_t design_capacity = 16;
  /// Resident-bytes bound for the design store (same LRU policy).
  std::size_t design_max_bytes = 1ull << 30;

  // ---- portfolio racing (DESIGN.md §14) ------------------------------------
  /// How often the racer thread samples live portfolios' member progress and
  /// kills strict laggards. <= 0 starts no racer thread (members still run to
  /// completion; the winner is still selected).
  double portfolio_poll_s = 0.25;
  /// Server-default racing policy; submit-portfolio requests may override
  /// per portfolio.
  RacePolicy portfolio_policy;
};

class PlacementServer {
 public:
  explicit PlacementServer(ServerConfig cfg);
  /// Implies shutdown(/*drain=*/false) when still running.
  ~PlacementServer();

  PlacementServer(const PlacementServer&) = delete;
  PlacementServer& operator=(const PlacementServer&) = delete;

  struct SubmitOutcome {
    bool ok = false;
    std::uint64_t id = 0;
    bool deduped = false;  ///< served by an existing (design, config) job
    std::string error;
  };
  /// Admission control: rejects (ok=false) when the spec is invalid
  /// (validate_spec), the queue is full, or the server is shutting down.
  SubmitOutcome submit(const JobSpec& spec);

  // ---- design store (DESIGN.md §14) ----------------------------------------
  struct UploadOutcome {
    bool ok = false;
    std::uint64_t hash = 0;
    bool cached = false;  ///< content was already resident (no parse)
    std::string name;
    std::size_t cells = 0, nets = 0, bytes = 0;
    std::string error;
  };
  /// Parses (or finds cached) the design named by spec.aux / spec.demo_cells
  /// and registers it in the store. Idempotent per content hash.
  UploadOutcome upload_design(const JobSpec& source);
  std::vector<DesignStore::Entry> list_designs() const;
  bool evict_design(std::uint64_t hash, std::string* error);

  // ---- batches: sweeps and raced portfolios (DESIGN.md §14) ----------------
  struct BatchJobRef {
    std::uint64_t id = 0;
    bool deduped = false;
  };
  struct BatchSubmitOutcome {
    bool ok = false;
    std::uint64_t batch_id = 0;
    std::uint64_t design_hash = 0;
    std::vector<BatchJobRef> jobs;
    std::string error;
  };
  /// Atomically fans `configs` (each a full JobSpec whose design fields are
  /// overwritten with the batch's design) out as ordinary jobs on the queue.
  /// All-or-nothing admission: if the queue cannot take every distinct
  /// non-deduped config, the whole batch is rejected. The design is resolved
  /// (one parse, ever) before any job is enqueued. With `race` set the batch
  /// is a portfolio: the racer thread early-kills strict laggards per
  /// race->policy, the default label is "p<id>", and members are labelled
  /// "<batch label>_<config label>".
  BatchSubmitOutcome submit_batch(const JobSpec& base,
                                  const std::vector<JobSpec>& configs,
                                  std::optional<BatchRace> race = std::nullopt);
  /// Launches K perturbed restarts of `base`'s design as one raced batch
  /// (opt::make_portfolio_plan variants: distinct seeds, noise-injected
  /// anchors, varied γ/λ schedules) under `deadline_s`. base.seed seeds the
  /// plan; the portfolio is deterministic from (design, k, base.seed). The
  /// portfolio id is its batch id.
  BatchSubmitOutcome submit_portfolio(const JobSpec& base, int k,
                                      double deadline_s,
                                      const RacePolicy& policy);
  /// submit_portfolio with the server-default policy.
  BatchSubmitOutcome submit_portfolio(const JobSpec& base, int k,
                                      double deadline_s);

  struct BatchStatus {
    std::uint64_t id = 0;
    std::uint64_t design_hash = 0;
    std::string label;
    std::vector<BatchJobRef> jobs;
    std::size_t queued = 0, running = 0, done = 0, cancelled = 0, failed = 0,
                shed = 0;
    bool all_terminal = false;
    /// Winner: the lowest legal HPWL among done members (the DP HPWL when the
    /// flow legalized, the GP HPWL otherwise); a tie goes to the lower job id.
    /// best_job 0 = no done member yet.
    double best_hpwl = 0.0;
    std::uint64_t best_job = 0;
    std::optional<BatchRace> race;  ///< set for a portfolio
    std::size_t killed = 0;         ///< members the racer cancelled as laggards
  };
  /// nullopt = unknown batch id.
  std::optional<BatchStatus> batch_status(std::uint64_t id) const;
  /// Blocks until every member job is terminal (or timeout); nullopt =
  /// unknown id. On timeout returns the current aggregate.
  std::optional<BatchStatus> batch_wait(std::uint64_t id, double timeout_s) const;
  /// Cancels every non-terminal member of a batch in one shot (queued members
  /// settle immediately, running members get their stop tokens armed). Dedup
  /// members whose serving job belongs to another batch are cancelled too —
  /// a batch-cancel means "stop spending on this sweep". Returns false with
  /// *error only for unknown batch ids; *cancelled counts members acted on.
  bool batch_cancel(std::uint64_t id, std::size_t* cancelled,
                    std::string* error);

  /// Cancels a job. Queued → terminal kCancelled immediately; running → its
  /// StopToken is armed and the job lands terminal shortly (with the best-
  /// snapshot placement committed). False (with *error) for unknown ids or
  /// jobs already terminal.
  bool cancel(std::uint64_t id, std::string* error);

  /// Snapshot of a job record; nullopt = unknown id (never submitted, or
  /// evicted from the bounded result store).
  std::optional<JobRecord> status(std::uint64_t id) const;

  /// Blocks until the job is terminal (or timeout_s elapses) and returns its
  /// record; nullopt = unknown id. On timeout returns the current record.
  std::optional<JobRecord> wait(std::uint64_t id, double timeout_s) const;

  struct EventBatch {
    std::vector<JobEvent> events;
    std::uint64_t next_seq = 0;   ///< pass as `from` of the next call
    std::uint64_t dropped = 0;    ///< events lost to the bounded ring so far
    bool terminal = false;        ///< job reached a terminal state
  };
  /// Events with seq >= from_seq. Blocks up to timeout_s until at least one
  /// new event exists or the job is terminal; nullopt = unknown id.
  std::optional<EventBatch> events(std::uint64_t id, std::uint64_t from_seq,
                                   double timeout_s) const;

  /// Percentile summary of one serve-level latency histogram (seconds).
  /// Estimated via telemetry::Histogram::quantile over the SLO histograms
  /// the server observes on every terminal job.
  struct LatencySummary {
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::uint64_t count = 0;
  };

  struct Stats {
    std::uint64_t submitted = 0, rejected = 0, completed = 0, cancelled = 0,
                  failed = 0;
    // Self-healing counters (DESIGN.md §13).
    std::uint64_t shed = 0;       ///< jobs evicted by admission control
    std::uint64_t retries = 0;    ///< supervised re-admissions
    std::uint64_t recovered = 0;  ///< live jobs re-enqueued at startup
    bool journal_active = false;  ///< a state_dir journal is open
    bool journal_degraded = false;  ///< an append failed; durability is off
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_records = 0;
    std::size_t retry_pending = 0;  ///< jobs waiting out a backoff window
    std::size_t queued = 0, running = 0;
    std::size_t queue_capacity = 0, max_concurrency = 0;
    std::size_t thread_budget = 0, threads_leased = 0;
    bool accepting = true;
    // SLO telemetry (tentpole of the observability plane, DESIGN.md §12).
    std::uint64_t events_dropped = 0;   ///< cumulative across every job ring
    std::uint64_t deadline_missed = 0;  ///< jobs terminated by their deadline
    LatencySummary queue_wait;          ///< submit → start, terminal jobs
    LatencySummary run;                 ///< start → finish
    LatencySummary e2e;                 ///< submit → finish
    // Design store + batch sweeps (DESIGN.md §14).
    std::uint64_t design_parses = 0;
    std::uint64_t design_cache_hits = 0;
    std::uint64_t design_cache_evictions = 0;
    std::size_t designs_resident = 0;
    std::size_t design_resident_bytes = 0;
    std::size_t batches = 0;            ///< batches tracked (live + retained)
    std::uint64_t dedup_hits = 0;       ///< submits served from the result cache
    std::size_t portfolios = 0;         ///< raced batches among them
    std::uint64_t portfolio_kills = 0;  ///< laggards killed early by the racer
  };
  Stats stats() const;

  /// Stops accepting submissions, then: drain=true lets queued + running
  /// jobs finish; drain=false cancels queued jobs and arms running jobs'
  /// stop tokens. Blocks until workers exit. Idempotent.
  void shutdown(bool drain);

  bool accepting() const;
  const ServerConfig& config() const { return cfg_; }

 private:
  using DedupKey = std::pair<std::uint64_t, std::uint64_t>;

  // One live job: record + stop token + event ring. Jobs are heap-allocated
  // (shared_ptr: waiters in wait()/events() hold a reference so eviction
  // from the result store cannot pull a condition_variable out from under
  // them) and never move, so worker threads can touch the token outside the
  // server lock's critical sections.
  struct Job {
    JobRecord rec;
    StopToken token;
    std::deque<JobEvent> events;
    std::uint64_t next_seq = 0;
    std::uint64_t dropped = 0;
    double submit_us = 0.0;  ///< Tracer::now_us() at submit (queue-wait span)
    /// Queue-entry deadline in the steady-clock domain (kNoDeadline = none);
    /// survives retries so the deadline keeps covering every attempt.
    double queue_deadline = QueuedJob::kNoDeadline;
    /// Dedup registration: (design_hash, config_hash) this job serves in
    /// dedup_index_ ({0,0} = none). Kept on the job so settling/eviction can
    /// drop the index entry without re-deriving the design hash.
    DedupKey dedup_key{0, 0};
    std::condition_variable cv;  ///< waits on mutex_: events + state changes
  };

  void worker_loop();
  void run_job(Job& job, std::size_t leased_threads);
  void finish_job_locked(Job& job, JobState state);
  /// Books one terminal `state` into completed_/cancelled_/failed_/shed_.
  void count_terminal_locked(JobState state);
  void evict_terminal_locked();
  void publish_job_metrics(const JobRecord& rec);

  // Design store + batch plumbing (DESIGN.md §14).
  /// Core submit path shared by submit() and submit_batch(); caller holds
  /// mutex_. Performs the dedup lookup (spec.dedup + dedup_hash), allocates
  /// the id, journals, and enqueues. dedup_hash = the spec's design content
  /// hash (0 = dedup unavailable). allow_shed gates the displace-weaker
  /// admission path (off for batch members: batches are all-or-nothing).
  SubmitOutcome submit_spec_locked(JobSpec spec, std::uint64_t dedup_hash,
                                   bool allow_shed);
  /// Cancel core shared by cancel(), batch_cancel(), and the portfolio
  /// racer's early-kill; caller holds mutex_.
  bool cancel_locked(std::uint64_t id, std::string* error);
  /// FNV-1a over the placement-config slice of a spec (everything that
  /// changes the result at a fixed design) — the dedup key's second half.
  std::uint64_t config_hash(const JobSpec& spec) const;
  /// The job serving `key` — kDone or still live — or 0 when none does.
  std::uint64_t dedup_target_locked(const DedupKey& key) const;
  /// Resolves a spec's design source (stored hash, aux, or demo) through the
  /// store; *ref receives the source to journal (empty for a stored hash).
  DesignStore::SnapshotPtr load_design(const JobSpec& spec,
                                       DesignStore::SourceRef* ref,
                                       std::string* error);
  void note_rejected_locked();
  BatchStatus batch_status_locked(std::uint64_t id) const;
  void journal_design_ref_locked(std::uint64_t hash,
                                 const DesignStore::SourceRef& ref);

  // Durability & self-healing (DESIGN.md §13).
  void recover_from_journal();
  void journal_append_locked(JournalEvent type, std::uint64_t job_id,
                             std::string payload);
  /// True when the job was re-admitted for another attempt (caller must not
  /// settle it); false when the retry budget is spent or retries are off.
  bool maybe_schedule_retry_locked(Job& job, const char* outcome);
  void retry_loop();
  /// Sheds the weakest queued job strictly below `incoming_priority`.
  /// Returns true when a victim was settled kShed (queue space freed).
  bool shed_weakest_locked(int incoming_priority, const char* cause);

  // Thread-budget arbitration (counting semaphore over cfg_.thread_budget).
  std::size_t lease_threads(int requested);
  void release_threads(std::size_t leased);

  ServerConfig cfg_;
  JobQueue queue_;
  DesignStore designs_;

  mutable std::mutex mutex_;
  mutable std::condition_variable budget_cv_;
  mutable std::condition_variable batch_cv_;  ///< batch_wait: job settled
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> terminal_order_;  // eviction FIFO
  std::uint64_t next_id_ = 1;
  std::size_t threads_leased_ = 0;
  std::size_t running_ = 0;
  bool accepting_ = true;
  bool shut_down_ = false;

  // Counters (under mutex_; mirrored into telemetry on change).
  std::uint64_t submitted_ = 0, rejected_ = 0, completed_ = 0, cancelled_ = 0,
                failed_ = 0;
  std::uint64_t shed_ = 0, retries_ = 0, recovered_ = 0;
  std::uint64_t events_dropped_total_ = 0;
  std::uint64_t deadline_missed_ = 0;
  std::uint64_t dedup_hits_ = 0;

  // Batches (under mutex_). Batches are bookkeeping only — member jobs live
  // in jobs_ like any other; a batch row just names them, plus the race
  // section and the racer's tally when the batch is a portfolio.
  struct Batch {
    BatchInfo info;          ///< design, label, members, race (journaled)
    std::size_t killed = 0;  ///< laggards the racer cancelled
    bool settled = false;    ///< raced and all terminal: racer stops sampling
  };
  std::map<std::uint64_t, Batch> batches_;
  std::uint64_t next_batch_id_ = 1;
  std::uint64_t portfolio_kills_ = 0;

  /// One racer pass over every live raced batch: sample member progress from
  /// the event rings, kill strict laggards via cancel_locked. Caller holds
  /// mutex_.
  void race_portfolios_locked();
  /// Racer thread body; started only when cfg_.portfolio_poll_s > 0.
  void portfolio_loop();
  std::condition_variable portfolio_cv_;
  bool portfolio_stop_ = false;
  std::thread portfolio_thread_;
  /// (design_hash, config_hash) → job id serving that exact placement; used
  /// by dedup-enabled submits. Entries are dropped when the target job ends
  /// non-kDone or is evicted from the result store.
  std::map<DedupKey, std::uint64_t> dedup_index_;
  /// Design hashes already journaled as kDesignRef (avoid duplicate records).
  std::map<std::uint64_t, bool> journaled_designs_;

  // Durable journal (under mutex_). Degraded = an append failed (I/O error
  // or injected disk_full); the server keeps serving from memory but
  // admission treats the loss of durability as saturation.
  io::JournalWriter journal_;
  bool journal_degraded_ = false;

  // Supervised-retry timer: jobs waiting out their backoff, as (due steady-
  // clock seconds, id) pairs scanned for the earliest. Guarded by mutex_;
  // retry_cv_ wakes the timer thread on schedule/shutdown.
  struct PendingRetry {
    double due_s = 0.0;
    std::uint64_t id = 0;
  };
  std::vector<PendingRetry> retry_pending_;
  std::condition_variable retry_cv_;
  bool retry_stop_ = false;
  std::thread retry_thread_;

  // Serve-level SLO histograms (global-registry entries, resolved once in
  // the constructor; stable metric names — see DESIGN.md §12 catalog).
  telemetry::Histogram* queue_wait_hist_ = nullptr;  // serve.queue_wait_s
  telemetry::Histogram* run_hist_ = nullptr;         // serve.run_s
  telemetry::Histogram* e2e_hist_ = nullptr;         // serve.e2e_s

  std::vector<std::thread> workers_;
};

}  // namespace xplace::server
