#include "server/server.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <new>
#include <set>
#include <stdexcept>

#include "dp/detailed_placer.h"
#include "io/bookshelf.h"
#include "io/generator.h"
#include "lg/abacus.h"
#include "opt/portfolio.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace xplace::server {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CLOCK_REALTIME seconds — the journal's time domain. The steady clock
/// resets across a restart, so replay-side deadline accounting has to reason
/// in wall time.
double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Deterministic backoff jitter in [0, 0.25): hashed from (job id, attempt)
/// so a retry schedule replays identically across runs and restarts — no
/// wall-clock or RNG dependence, same spirit as the demo seeds.
double retry_jitter(std::uint64_t id, int attempt) {
  util::ByteWriter key;
  key(id, attempt);
  const std::uint64_t h = util::fnv1a64(key.str().data(), key.str().size());
  return static_cast<double>(h % 1024) / 4096.0;
}

std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

core::StopReason stop_reason_from(StopCause cause) {
  return cause == StopCause::kDeadline ? core::StopReason::kDeadline
                                       : core::StopReason::kCancelled;
}

/// Bucket layout for the serve-level latency histograms: 1 ms .. ~2.3 h,
/// ×2 per bucket. Shared by queue-wait / run / e2e so their percentiles are
/// directly comparable.
std::vector<double> latency_bounds() {
  return telemetry::Histogram::exponential_bounds(1e-3, 2.0, 24);
}

}  // namespace

PlacementServer::PlacementServer(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      queue_(cfg_.queue_capacity),
      designs_(DesignStoreConfig{cfg_.design_capacity, cfg_.design_max_bytes}) {
  cfg_.max_concurrency = std::max<std::size_t>(1, cfg_.max_concurrency);
  cfg_.default_job_threads = std::max(1, cfg_.default_job_threads);
  if (cfg_.thread_budget == 0) {
    cfg_.thread_budget =
        cfg_.max_concurrency * static_cast<std::size_t>(cfg_.default_job_threads);
  }
  if (!cfg_.state_dir.empty() && cfg_.spill_dir.empty()) {
    // Durable mode spills next to the journal by default so running jobs
    // always leave resume points under the state dir.
    cfg_.spill_dir = cfg_.state_dir;
  }
  if (!cfg_.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg_.spill_dir, ec);
  }
  if (cfg_.faults.empty()) cfg_.faults = ServeFaultPlan::from_env();
  telemetry::Registry& reg = telemetry::Registry::global();
  queue_wait_hist_ = &reg.histogram("serve.queue_wait_s", latency_bounds());
  run_hist_ = &reg.histogram("serve.run_s", latency_bounds());
  e2e_hist_ = &reg.histogram("serve.e2e_s", latency_bounds());
  // Replay + re-enqueue strictly before any worker thread exists: recovery
  // mutates the queue and the job map without racing live execution.
  if (!cfg_.state_dir.empty()) recover_from_journal();
  retry_thread_ = std::thread([this] { retry_loop(); });
  if (cfg_.portfolio_poll_s > 0.0) {
    portfolio_thread_ = std::thread([this] { portfolio_loop(); });
  }
  workers_.reserve(cfg_.max_concurrency);
  for (std::size_t i = 0; i < cfg_.max_concurrency; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  XP_INFO("placement server up: %zu job slot(s), queue %zu, thread budget %zu",
          cfg_.max_concurrency, cfg_.queue_capacity, cfg_.thread_budget);
}

PlacementServer::~PlacementServer() { shutdown(/*drain=*/false); }

PlacementServer::SubmitOutcome PlacementServer::submit(const JobSpec& spec) {
  // Spec validation before any admission bookkeeping — the satellite fix for
  // ambiguous sources (both aux and demo_cells) silently preferring aux. The
  // wire path goes through the same validate_spec in the protocol parser;
  // this covers the in-process entry point.
  if (std::string verr = validate_spec(spec); !verr.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    note_rejected_locked();
    SubmitOutcome out;
    out.error = std::move(verr);
    return out;
  }
  // Dedup key resolution (file hash / generator key) happens outside mutex_:
  // hashing an aux file reads its bytes from disk.
  std::uint64_t dedup_hash = 0;
  if (spec.dedup) {
    if (spec.design_hash != 0) {
      dedup_hash = spec.design_hash;
    } else if (spec.demo_cells > 0) {
      dedup_hash = io::demo_content_hash(
          static_cast<std::size_t>(spec.demo_cells), spec.demo_seed);
    } else {
      try {
        dedup_hash = io::hash_bookshelf_aux(spec.aux);
      } catch (const std::exception&) {
        // Unreadable aux: leave dedup off; the run itself will surface the
        // parse error as a kFailed terminal state.
      }
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return submit_spec_locked(spec, dedup_hash, /*allow_shed=*/true);
}

void PlacementServer::note_rejected_locked() {
  ++rejected_;
  telemetry::Registry::global().counter("serve.rejected").inc();
}

std::uint64_t PlacementServer::config_hash(const JobSpec& spec) const {
  // Everything that changes the placement result at a fixed design and a
  // fixed thread count. Threads are resolved (spec override or server
  // default) so the same effective run dedups across the two spellings.
  util::ByteWriter key;
  key(static_cast<std::uint64_t>(spec.max_iters),
      static_cast<std::uint64_t>(spec.grid),
      static_cast<std::uint64_t>(spec.threads > 0 ? spec.threads
                                                  : cfg_.default_job_threads),
      static_cast<std::uint64_t>(spec.full_flow), spec.seed, spec.demo_seed,
      spec.target_density, spec.lambda_init,
      // Perturbed-restart knobs: two portfolio variants of the same design
      // must dedup as distinct results.
      spec.init_noise_scale, spec.gamma_scale, spec.lambda_scale);
  return util::fnv1a64(key.str().data(), key.str().size());
}

std::uint64_t PlacementServer::dedup_target_locked(const DedupKey& key) const {
  // A still-live target is shared too: the flow is deterministic at fixed
  // threads, so its eventual record is what a fresh run would produce. A
  // target that ended anything but kDone was dropped from the index when it
  // settled; an evicted one is simply gone from jobs_.
  const auto hit = dedup_index_.find(key);
  if (hit == dedup_index_.end()) return 0;
  const auto jit = jobs_.find(hit->second);
  if (jit == jobs_.end()) return 0;
  const JobState st = jit->second->rec.state;
  return st == JobState::kDone || !is_terminal(st) ? hit->second : 0;
}

PlacementServer::SubmitOutcome PlacementServer::submit_spec_locked(
    JobSpec spec, std::uint64_t dedup_hash, bool allow_shed) {
  telemetry::Registry& reg = telemetry::Registry::global();
  SubmitOutcome out;
  if (!accepting_) {
    out.error = "server is shutting down";
    note_rejected_locked();
    return out;
  }

  // Result dedup: an identical (design, config) already serving — return its
  // id instead of re-running.
  const DedupKey key{dedup_hash, config_hash(spec)};
  if (spec.dedup && dedup_hash != 0) {
    if (const std::uint64_t served = dedup_target_locked(key)) {
      ++dedup_hits_;
      reg.counter("serve.dedup_hits").inc();
      out.ok = true;
      out.id = served;
      out.deduped = true;
      return out;
    }
  }

  // Saturation checks beyond queue occupancy: losing the journal (disk_full
  // or an I/O error) or blowing its disk budget means new work can no longer
  // be made durable — admission degrades to the shedding path rather than
  // accepting silently-volatile jobs (DESIGN.md §13).
  const bool journal_saturated =
      journal_.is_open() &&
      (journal_degraded_ || journal_.size_bytes() > cfg_.journal_max_bytes);
  if (journal_saturated &&
      (!allow_shed ||
       !shed_weakest_locked(spec.priority, journal_degraded_
                                               ? "journal degraded"
                                               : "journal disk budget"))) {
    out.error = journal_degraded_
                    ? "journal degraded (durability lost) — not accepting work"
                    : "journal disk budget saturated — retry later";
    note_rejected_locked();
    return out;
  }

  const std::uint64_t id = next_id_;
  QueuedJob qj;
  qj.id = id;
  qj.priority = spec.priority;
  qj.deadline = spec.deadline_s > 0 ? steady_seconds() + spec.deadline_s
                                    : QueuedJob::kNoDeadline;
  if (!queue_.push(qj)) {
    // Queue full: shed the weakest strictly-lower-priority queued job in
    // favor of the incoming one; same-or-higher everywhere → plain reject.
    if (!allow_shed || !shed_weakest_locked(spec.priority, "queue full") ||
        !queue_.push(qj)) {
      out.error = "queue full (" + std::to_string(queue_.capacity()) +
                  " jobs) — retry later";
      note_rejected_locked();
      return out;
    }
  }
  ++next_id_;
  auto job = std::make_shared<Job>();
  job->rec.id = id;
  job->rec.spec = spec;
  if (job->rec.spec.label.empty()) {
    job->rec.spec.label = "job" + std::to_string(id);
  }
  job->rec.spec.label = sanitize_label(job->rec.spec.label);
  job->rec.state = JobState::kQueued;
  job->rec.submitted_s = log::elapsed_seconds();
  job->submit_us = telemetry::Tracer::now_us();
  // Request identity: every span recorded on this job's behalf — scheduler
  // lease, GP/LG/DP phases, pooled kernels — carries this trace id, so the
  // Chrome exporter can render one coherent timeline per job. The label is
  // only registered when tracing is on (the table is GC'd at job eviction).
  job->rec.trace_id = telemetry::TraceContext::new_id();
  if (telemetry::Tracer::global().enabled()) {
    telemetry::Tracer::global().set_trace_label(
        job->rec.trace_id,
        "job " + std::to_string(id) + " (" + job->rec.spec.label + ")");
  }
  if (spec.deadline_s > 0) job->token.set_timeout(spec.deadline_s);
  job->queue_deadline = qj.deadline;
  if (spec.dedup && dedup_hash != 0) {
    job->dedup_key = key;
    dedup_index_[key] = id;  // later identical dedup submits share this job
  }
  journal_append_locked(JournalEvent::kSubmit, id,
                        encode_submit(job->rec.spec, /*attempt=*/0));
  jobs_.emplace(id, std::move(job));

  ++submitted_;
  reg.counter("serve.submitted").inc();
  reg.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  out.ok = true;
  out.id = id;
  return out;
}

// ---------------------------------------------------------------------------
// Design store + batch sweeps (DESIGN.md §14)
// ---------------------------------------------------------------------------

void PlacementServer::journal_design_ref_locked(
    std::uint64_t hash, const DesignStore::SourceRef& ref) {
  if (journaled_designs_.count(hash) != 0) return;
  journal_append_locked(JournalEvent::kDesignRef, hash,
                        encode_design_ref(ref));
  journaled_designs_[hash] = true;
}

DesignStore::SnapshotPtr PlacementServer::load_design(
    const JobSpec& spec, DesignStore::SourceRef* ref, std::string* error) {
  *ref = DesignStore::SourceRef{};
  if (spec.design_hash != 0) {
    // The store already knows the source (upload or recovery registered it);
    // nothing to journal beyond what those paths wrote.
    return designs_.get_hash(spec.design_hash, error);
  }
  if (!spec.aux.empty()) {
    ref->aux = spec.aux;
    return designs_.get_aux(spec.aux, error);
  }
  ref->demo = true;
  ref->cells = static_cast<std::size_t>(spec.demo_cells);
  ref->seed = spec.demo_seed;
  return designs_.get_demo(ref->cells, ref->seed, error);
}

PlacementServer::UploadOutcome PlacementServer::upload_design(
    const JobSpec& source) {
  UploadOutcome out;
  if (source.design_hash != 0) {
    out.error = "upload-design needs a parseable source (\"aux\" or "
                "\"demo_cells\"), not a design hash";
    return out;
  }
  if (std::string verr = validate_spec(source); !verr.empty()) {
    out.error = std::move(verr);
    return out;
  }
  DesignStore::SourceRef ref;
  const std::uint64_t parses_before = designs_.stats().parses;
  const DesignStore::SnapshotPtr snap = load_design(source, &ref, &out.error);
  if (!snap) return out;
  out.ok = true;
  out.hash = snap->content_hash;
  out.cached = designs_.stats().parses == parses_before;
  out.name = snap->design_name();
  out.cells = snap->num_cells();
  out.nets = snap->num_nets();
  out.bytes = snap->resident_bytes;
  std::lock_guard<std::mutex> lock(mutex_);
  journal_design_ref_locked(out.hash, ref);
  return out;
}

std::vector<DesignStore::Entry> PlacementServer::list_designs() const {
  return designs_.list();
}

bool PlacementServer::evict_design(std::uint64_t hash, std::string* error) {
  return designs_.evict(hash, error);
}

PlacementServer::BatchSubmitOutcome PlacementServer::submit_batch(
    const JobSpec& base, const std::vector<JobSpec>& configs,
    std::optional<BatchRace> race) {
  BatchSubmitOutcome out;
  if (configs.empty()) {
    out.error = "submit-batch needs at least one config";
    return out;
  }
  if (std::string verr = validate_spec(base); !verr.empty()) {
    out.error = std::move(verr);
    return out;
  }

  // Resolve the design FIRST, outside mutex_ — this is the batch's single
  // parse (or a cache hit); every member job then references the snapshot by
  // content hash.
  DesignStore::SourceRef ref;
  const DesignStore::SnapshotPtr snap = load_design(base, &ref, &out.error);
  if (!snap) return out;
  const std::uint64_t dhash = snap->content_hash;

  std::lock_guard<std::mutex> lock(mutex_);
  if (!accepting_) {
    out.error = "server is shutting down";
    note_rejected_locked();
    return out;
  }

  // Build + validate every member spec before admitting any (all-or-nothing).
  // Each config keeps its own placement fields; the design fields are
  // overwritten with the batch's resolved hash.
  std::vector<JobSpec> specs;
  specs.reserve(configs.size());
  std::set<DedupKey> fresh_keys;  // distinct dedup configs needing a seat
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    JobSpec s = configs[i];
    s.aux.clear();
    s.demo_cells = 0;
    s.demo_seed = base.demo_seed;
    s.design_hash = dhash;
    if (std::string verr = validate_spec(s); !verr.empty()) {
      out.error = "config " + std::to_string(i) + ": " + verr;
      note_rejected_locked();
      return out;
    }
    // Count the seats admission will take: a dedup config takes one unless
    // an existing job serves it, and a config repeated within the batch
    // shares its first occurrence's seat.
    const DedupKey key{dhash, config_hash(s)};
    if (!s.dedup ||
        (dedup_target_locked(key) == 0 && fresh_keys.insert(key).second)) {
      ++fresh;
    }
    specs.push_back(std::move(s));
  }
  if (queue_.size() + fresh > queue_.capacity()) {
    out.error = "queue cannot take " + std::to_string(fresh) +
                " job(s) (" + std::to_string(queue_.capacity() - queue_.size()) +
                " seat(s) free) — batch rejected whole";
    note_rejected_locked();
    return out;
  }

  const std::uint64_t bid = next_batch_id_++;
  if (!ref.aux.empty() || ref.demo) journal_design_ref_locked(dhash, ref);

  Batch batch;
  batch.info.design_hash = dhash;
  batch.info.label = sanitize_label(
      !base.label.empty() ? base.label
                          : (race ? "p" : "batch") + std::to_string(bid));
  batch.info.race = race;
  for (JobSpec& s : specs) {
    s.batch_id = bid;
    if (race) s.label = batch.info.label + "_" + s.label;
    // A dedup hit inside the batch (within the current configs, a repeated
    // earlier config is already in the index) shares the serving job's id.
    const SubmitOutcome so =
        submit_spec_locked(s, s.dedup ? dhash : 0, /*allow_shed=*/false);
    if (!so.ok) {
      // Post-precheck failure can only be journal saturation racing this
      // batch's own appends; settle as a whole-batch error with the members
      // already admitted left to run (they are real jobs now).
      out.error = "batch admission failed at config " +
                  std::to_string(out.jobs.size()) + ": " + so.error;
      break;
    }
    out.jobs.push_back({so.id, so.deduped});
    batch.info.job_ids.push_back(so.id);
    batch.info.deduped.push_back(so.deduped ? 1 : 0);
  }
  out.batch_id = bid;
  out.design_hash = dhash;
  out.ok = out.error.empty();
  journal_append_locked(JournalEvent::kBatch, bid, encode_batch(batch.info));
  batches_.emplace(bid, std::move(batch));
  telemetry::Registry& reg = telemetry::Registry::global();
  reg.counter("serve.batches").inc();
  if (race) {
    reg.counter("serve.portfolio.submitted").inc();
    XP_INFO("portfolio %llu: %u-way race on design %016llx (base seed %llu, "
            "deadline %.1fs)",
            static_cast<unsigned long long>(bid), race->k,
            static_cast<unsigned long long>(dhash),
            static_cast<unsigned long long>(race->base_seed), race->deadline_s);
    portfolio_cv_.notify_all();  // the racer wakes up to the new portfolio
  }
  return out;
}

PlacementServer::BatchStatus PlacementServer::batch_status_locked(
    std::uint64_t id) const {
  const Batch& b = batches_.at(id);
  BatchStatus s;
  s.id = id;
  s.design_hash = b.info.design_hash;
  s.label = b.info.label;
  s.race = b.info.race;
  s.killed = b.killed;
  s.all_terminal = true;
  for (std::size_t i = 0; i < b.info.job_ids.size(); ++i) {
    s.jobs.push_back({b.info.job_ids[i], b.info.deduped[i] != 0});
    const auto it = jobs_.find(b.info.job_ids[i]);
    if (it == jobs_.end()) {
      // Evicted from the bounded result store — eviction only takes terminal
      // jobs, so this member settled (state unknown; count it done).
      ++s.done;
      continue;
    }
    const JobRecord& rec = it->second->rec;
    switch (rec.state) {
      case JobState::kQueued: ++s.queued; s.all_terminal = false; break;
      case JobState::kRunning: ++s.running; s.all_terminal = false; break;
      case JobState::kDone: ++s.done; break;
      case JobState::kCancelled: ++s.cancelled; break;
      case JobState::kFailed: ++s.failed; break;
      case JobState::kShed: ++s.shed; break;
    }
    if (rec.state == JobState::kDone) {
      const double h = rec.legalized ? rec.dp_hpwl : rec.hpwl;
      if (s.best_job == 0 || h < s.best_hpwl ||
          (h == s.best_hpwl && rec.id < s.best_job)) {
        s.best_hpwl = h;
        s.best_job = rec.id;
      }
    }
  }
  return s;
}

std::optional<PlacementServer::BatchStatus> PlacementServer::batch_status(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (batches_.count(id) == 0) return std::nullopt;
  return batch_status_locked(id);
}

std::optional<PlacementServer::BatchStatus> PlacementServer::batch_wait(
    std::uint64_t id, double timeout_s) const {
  std::unique_lock<std::mutex> lock(mutex_);
  if (batches_.count(id) == 0) return std::nullopt;
  batch_cv_.wait_for(lock,
                     std::chrono::duration<double>(std::max(0.0, timeout_s)),
                     [&] { return batch_status_locked(id).all_terminal; });
  return batch_status_locked(id);
}

// ---------------------------------------------------------------------------
// Portfolio racing (DESIGN.md §14): a portfolio is a raced batch
// ---------------------------------------------------------------------------

PlacementServer::BatchSubmitOutcome PlacementServer::submit_portfolio(
    const JobSpec& base, int k, double deadline_s) {
  return submit_portfolio(base, k, deadline_s, cfg_.portfolio_policy);
}

PlacementServer::BatchSubmitOutcome PlacementServer::submit_portfolio(
    const JobSpec& base, int k, double deadline_s, const RacePolicy& policy) {
  BatchSubmitOutcome out;
  if (k < 2) {
    out.error = "submit-portfolio needs \"k\" >= 2 (one member is a submit)";
    return out;
  }
  if (k > 64) {
    out.error = "\"k\" exceeds the 64-member portfolio bound";
    return out;
  }
  if (deadline_s < 0.0) {
    out.error = "\"deadline_s\" must be non-negative";
    return out;
  }

  // The plan is a pure function of (k, base seed): same two numbers, same K
  // perturbation variants, every time — the determinism acceptance.
  BatchRace race;
  race.base_seed = base.seed > 0 ? base.seed : 1;
  race.k = static_cast<std::uint32_t>(k);
  race.deadline_s = deadline_s;
  race.policy = policy;
  std::vector<JobSpec> configs;
  for (const opt::PerturbationVariant& v :
       opt::make_portfolio_plan(k, race.base_seed)) {
    JobSpec s = base;
    s.seed = v.seed;
    s.init_noise_scale = v.init_noise_scale;
    s.gamma_scale = v.gamma_scale;
    s.lambda_scale = v.lambda_scale;
    s.label = v.label;          // submit_batch prefixes the portfolio label
    s.deadline_s = deadline_s;  // shared race deadline, queue wait included
    s.dedup = true;
    configs.push_back(std::move(s));
  }
  return submit_batch(base, configs, race);
}

void PlacementServer::race_portfolios_locked() {
  telemetry::Registry& reg = telemetry::Registry::global();
  for (auto& [bid, b] : batches_) {
    if (!b.info.race || b.settled) continue;
    // Sample each member's newest progress event — the same Recorder-sourced
    // numbers the events verb streams — into the racer's cross-job view.
    std::vector<MemberProgress> members;
    members.reserve(b.info.job_ids.size());
    bool all_terminal = true;
    for (const std::uint64_t id : b.info.job_ids) {
      MemberProgress m;
      m.id = id;
      const auto jit = jobs_.find(id);
      if (jit == jobs_.end()) {
        m.terminal = true;  // evicted ⇒ settled long ago
      } else {
        const Job& job = *jit->second;
        m.terminal = is_terminal(job.rec.state);
        if (!job.events.empty()) {
          m.has_progress = true;
          m.iter = job.events.back().iter;
          m.hpwl = job.events.back().hpwl;
          m.overflow = job.events.back().overflow;
        }
      }
      all_terminal = all_terminal && m.terminal;
      members.push_back(m);
    }
    if (all_terminal) {
      b.settled = true;
      reg.counter("serve.portfolio.settled").inc();
      continue;
    }
    for (const std::uint64_t victim :
         laggards_to_kill(members, b.info.race->policy)) {
      if (!cancel_locked(victim, nullptr)) continue;
      ++b.killed;
      ++portfolio_kills_;
      reg.counter("serve.portfolio.killed").inc();
      XP_INFO("portfolio %llu: early-killed laggard job %llu",
              static_cast<unsigned long long>(bid),
              static_cast<unsigned long long>(victim));
    }
  }
}

void PlacementServer::portfolio_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!portfolio_stop_) {
    portfolio_cv_.wait_for(
        lock, std::chrono::duration<double>(cfg_.portfolio_poll_s));
    if (portfolio_stop_) break;
    race_portfolios_locked();
  }
}

bool PlacementServer::cancel_locked(std::uint64_t id, std::string* error) {
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    if (error != nullptr) *error = "unknown or evicted job id";
    return false;
  }
  // Keep the job alive past a same-pass result-store eviction inside
  // finish_job_locked (waiters' shared_ptrs do the same for them).
  const std::shared_ptr<Job> job = it->second;
  if (is_terminal(job->rec.state)) {
    if (error != nullptr) {
      *error = std::string("job already terminal (") +
               to_string(job->rec.state) + ")";
    }
    return false;
  }
  job->token.request_cancel();
  if (job->rec.state == JobState::kRunning) {
    // Running: the settle happens later on the worker thread. Journal the
    // intent now so a crash in between still cancels after recovery.
    journal_append_locked(JournalEvent::kCancel, id, {});
  }
  if (job->rec.state == JobState::kQueued) {
    // A queued job may be waiting out a retry backoff (not in queue_);
    // drop the pending entry so the timer never re-admits it.
    const std::size_t before = retry_pending_.size();
    retry_pending_.erase(
        std::remove_if(retry_pending_.begin(), retry_pending_.end(),
                       [id](const PendingRetry& p) { return p.id == id; }),
        retry_pending_.end());
    const bool was_backoff = retry_pending_.size() != before;
    // Still waiting: pull it out of the queue (or its backoff window) and
    // settle it here. If the remove races a worker's pop, the armed token
    // stops the run at its first poll instead.
    if (queue_.remove(id) || was_backoff) {
      job->rec.stop_reason = core::StopReason::kCancelled;
      finish_job_locked(*job, JobState::kCancelled);
    }
  }
  return true;
}

bool PlacementServer::cancel(std::uint64_t id, std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancel_locked(id, error);
}

bool PlacementServer::batch_cancel(std::uint64_t id, std::size_t* cancelled,
                                   std::string* error) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = batches_.find(id);
  if (it == batches_.end()) {
    if (error != nullptr) *error = "unknown batch id";
    return false;
  }
  std::size_t n = 0;
  for (const std::uint64_t member : it->second.info.job_ids) {
    // Already-terminal (or evicted) members are simply skipped — a batch
    // cancel is "stop spending on this sweep", not an error on stragglers.
    if (cancel_locked(member, nullptr)) ++n;
  }
  if (cancelled != nullptr) *cancelled = n;
  telemetry::Registry::global().counter("serve.batch.cancelled").inc();
  return true;
}

std::optional<JobRecord> PlacementServer::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second->rec;
}

std::optional<JobRecord> PlacementServer::wait(std::uint64_t id,
                                               double timeout_s) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const std::shared_ptr<Job> job = it->second;  // keeps the record alive
  job->cv.wait_for(lock,
                   std::chrono::duration<double>(std::max(0.0, timeout_s)),
                   [&] { return is_terminal(job->rec.state); });
  return job->rec;
}

std::optional<PlacementServer::EventBatch> PlacementServer::events(
    std::uint64_t id, std::uint64_t from_seq, double timeout_s) const {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const std::shared_ptr<Job> job = it->second;

  const auto has_new = [&] {
    return is_terminal(job->rec.state) ||
           (!job->events.empty() && job->events.back().seq >= from_seq);
  };
  job->cv.wait_for(lock,
                   std::chrono::duration<double>(std::max(0.0, timeout_s)),
                   has_new);

  EventBatch batch;
  batch.terminal = is_terminal(job->rec.state);
  batch.dropped = job->dropped;
  batch.next_seq = from_seq;
  for (const JobEvent& ev : job->events) {
    if (ev.seq >= from_seq) {
      batch.events.push_back(ev);
      batch.next_seq = ev.seq + 1;
    }
  }
  return batch;
}

PlacementServer::Stats PlacementServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.submitted = submitted_;
  s.rejected = rejected_;
  s.completed = completed_;
  s.cancelled = cancelled_;
  s.failed = failed_;
  s.shed = shed_;
  s.retries = retries_;
  s.recovered = recovered_;
  s.journal_active = journal_.is_open();
  s.journal_degraded = journal_degraded_;
  s.journal_bytes = journal_.size_bytes();
  s.journal_records = journal_.records_written();
  s.retry_pending = retry_pending_.size();
  s.queued = queue_.size();
  s.running = running_;
  s.queue_capacity = cfg_.queue_capacity;
  s.max_concurrency = cfg_.max_concurrency;
  s.thread_budget = cfg_.thread_budget;
  s.threads_leased = threads_leased_;
  s.accepting = accepting_;
  s.events_dropped = events_dropped_total_;
  s.deadline_missed = deadline_missed_;
  const auto summarize = [](const telemetry::Histogram* h) {
    LatencySummary sum;
    sum.p50 = h->quantile(0.50);
    sum.p95 = h->quantile(0.95);
    sum.p99 = h->quantile(0.99);
    sum.count = h->count();
    return sum;
  };
  s.queue_wait = summarize(queue_wait_hist_);
  s.run = summarize(run_hist_);
  s.e2e = summarize(e2e_hist_);
  const DesignStore::Stats ds = designs_.stats();
  s.design_parses = ds.parses;
  s.design_cache_hits = ds.cache_hits;
  s.design_cache_evictions = ds.cache_evictions;
  s.designs_resident = ds.resident;
  s.design_resident_bytes = ds.resident_bytes;
  s.batches = batches_.size();
  s.dedup_hits = dedup_hits_;
  for (const auto& [id, b] : batches_) s.portfolios += b.info.race ? 1 : 0;
  s.portfolio_kills = portfolio_kills_;
  return s;
}

bool PlacementServer::accepting() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return accepting_;
}

void PlacementServer::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shut_down_) return;
    shut_down_ = true;
    accepting_ = false;
  }
  XP_INFO("placement server shutdown (%s)", drain ? "drain" : "cancel");
  {
    // Retire the retry timer first. Drain flushes pending backoffs straight
    // into the queue (their jobs still get their remaining attempts);
    // no-drain settles them cancelled alongside the queued jobs below.
    std::unique_lock<std::mutex> lock(mutex_);
    retry_stop_ = true;
    if (drain) {
      for (const PendingRetry& p : retry_pending_) {
        const auto it = jobs_.find(p.id);
        if (it == jobs_.end() || is_terminal(it->second->rec.state)) continue;
        QueuedJob qj;
        qj.id = p.id;
        qj.priority = it->second->rec.spec.priority;
        qj.deadline = it->second->queue_deadline;
        queue_.push(qj);
      }
      retry_pending_.clear();
    }
  }
  retry_cv_.notify_all();
  if (retry_thread_.joinable()) retry_thread_.join();
  {
    // Retire the racer: no more early-kills once shutdown is in motion (the
    // no-drain path below cancels everything anyway).
    std::lock_guard<std::mutex> lock(mutex_);
    portfolio_stop_ = true;
  }
  portfolio_cv_.notify_all();
  if (portfolio_thread_.joinable()) portfolio_thread_.join();
  if (!drain) {
    // Settle queued jobs as cancelled, then arm every live token so running
    // (or popped-in-limbo) jobs stop at their next poll.
    const std::vector<QueuedJob> dropped = queue_.drain();
    std::lock_guard<std::mutex> lock(mutex_);
    for (const QueuedJob& qj : dropped) {
      const auto it = jobs_.find(qj.id);
      if (it == jobs_.end() || is_terminal(it->second->rec.state)) continue;
      it->second->rec.stop_reason = core::StopReason::kCancelled;
      finish_job_locked(*it->second, JobState::kCancelled);
    }
    for (const PendingRetry& p : retry_pending_) {
      const auto it = jobs_.find(p.id);
      if (it == jobs_.end() || is_terminal(it->second->rec.state)) continue;
      it->second->rec.stop_reason = core::StopReason::kCancelled;
      finish_job_locked(*it->second, JobState::kCancelled);
    }
    retry_pending_.clear();
    for (auto& [id, job] : jobs_) {
      if (!is_terminal(job->rec.state)) job->token.request_cancel();
    }
  }
  queue_.close();  // poppers drain what is left, then exit
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    // Every job is terminal now. The clean-shutdown marker, as the journal's
    // final record, lets the next start skip recovery and log "clean start".
    std::lock_guard<std::mutex> lock(mutex_);
    bool all_settled = true;
    for (const auto& [id, job] : jobs_) {
      all_settled = all_settled && is_terminal(job->rec.state);
    }
    if (all_settled) {
      journal_append_locked(JournalEvent::kCleanShutdown, 0, {});
    }
    journal_.close();
  }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

std::size_t PlacementServer::lease_threads(int requested) {
  const std::size_t want = std::min<std::size_t>(
      cfg_.thread_budget,
      static_cast<std::size_t>(std::max(1, requested)));
  std::unique_lock<std::mutex> lock(mutex_);
  budget_cv_.wait(lock, [&] {
    return threads_leased_ + want <= cfg_.thread_budget;
  });
  threads_leased_ += want;
  return want;
}

void PlacementServer::release_threads(std::size_t leased) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_leased_ -= leased;
  }
  budget_cv_.notify_all();
}

void PlacementServer::worker_loop() {
  QueuedJob qj;
  while (queue_.pop(&qj)) {
    std::shared_ptr<Job> job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = jobs_.find(qj.id);
      if (it == jobs_.end() || is_terminal(it->second->rec.state)) {
        continue;  // cancelled while queued (remove/pop race) or evicted
      }
      job = it->second;
      // Deadline admission: a job popped after its deadline never runs —
      // the deadline covers queue wait by design.
      if (const StopCause cause = job->token.check();
          cause != StopCause::kNone) {
        job->rec.stop_reason = stop_reason_from(cause);
        finish_job_locked(*job, JobState::kCancelled);
        continue;
      }
      job->rec.state = JobState::kRunning;
      job->rec.started_s = log::elapsed_seconds();
      ++running_;
      journal_append_locked(JournalEvent::kStart, qj.id, {});
      job->cv.notify_all();
    }
    telemetry::Registry::global().gauge("serve.queue_depth")
        .set(static_cast<double>(queue_.size()));

    // Queue-wait span: begins at submit (recorded then in the tracer's
    // timebase), ends now that a worker slot picked the job up. Recorded
    // directly since the interval did not live on any one thread.
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    if (tracer.enabled()) {
      telemetry::SpanEvent ev;
      ev.name = "serve.queue_wait";
      ev.begin_us = job->submit_us;
      ev.end_us = telemetry::Tracer::now_us();
      ev.tid = telemetry::Tracer::thread_id();
      ev.trace_id = job->rec.trace_id;
      tracer.record(ev);
    }

    const int requested = job->rec.spec.threads > 0
                              ? job->rec.spec.threads
                              : cfg_.default_job_threads;
    std::size_t leased = 0;
    {
      // Lease-acquire span: how long the job's slot waited for the server's
      // thread budget (nested under the job's trace root).
      telemetry::TraceBinding bind(job->rec.trace_id);
      telemetry::TraceScope lease_span("serve.lease_acquire");
      lease_span.arg("requested", requested);
      leased = lease_threads(requested);
      lease_span.arg("leased", static_cast<double>(leased));
    }
    run_job(*job, leased);
    release_threads(leased);
  }
}

void PlacementServer::run_job(Job& job, std::size_t leased_threads) {
  const std::uint64_t id = job.rec.id;
  const JobSpec spec = job.rec.spec;  // stable copy for the run
  // Root span of the job's trace: every span below (design load, gp.run and
  // its per-iteration children, lg/dp passes, pooled kernels) inherits the
  // trace id through the thread-local binding, which the ThreadPool also
  // forwards into its workers.
  telemetry::TraceBinding trace_binding(job.rec.trace_id);
  telemetry::TraceScope job_span("serve.job");
  job_span.arg("id", static_cast<double>(id))
      .arg("threads", static_cast<double>(leased_threads));
  XP_INFO("job %llu (%s) starting: %s, %d iters, %zu thread(s)",
          static_cast<unsigned long long>(id), spec.label.c_str(),
          spec.design_hash != 0 ? "stored design"
                                : (spec.aux.empty() ? "demo" : spec.aux.c_str()),
          spec.max_iters, leased_threads);
  try {
    // Design resolution goes through the content-addressed store: at most
    // one parse per distinct design ever, shared read-only across every
    // concurrent job (DESIGN.md §14). The pin exempts the snapshot from LRU
    // eviction for the duration of the run.
    telemetry::TraceScope load_span("serve.load_design");
    std::string derr;
    DesignStore::SourceRef ref;
    const DesignStore::SnapshotPtr snap = load_design(spec, &ref, &derr);
    if (!snap) throw std::runtime_error(derr);
    DesignStore::Pin pin(designs_, snap->content_hash);
    load_span.end();

    core::PlacerConfig cfg = core::PlacerConfig::xplace();
    cfg.grid_dim = spec.grid;
    cfg.max_iters = spec.max_iters;
    cfg.threads = static_cast<int>(leased_threads);
    // Sweep axes (submit-batch configs, also honored on plain submits).
    if (spec.seed > 0) cfg.seed = spec.seed;  // init() derives the streams
    if (spec.target_density > 0.0) cfg.target_density = spec.target_density;
    if (spec.lambda_init > 0.0) cfg.lambda_init_factor = spec.lambda_init;
    // Perturbed-restart knobs (portfolio members): multiplicative against the
    // defaults, matching opt::apply_variant.
    if (spec.init_noise_scale > 0.0) {
      cfg.center_init_noise *= spec.init_noise_scale;
    }
    if (spec.gamma_scale > 0.0) cfg.gamma_base_factor *= spec.gamma_scale;
    if (spec.lambda_scale > 0.0) cfg.lambda_init_factor *= spec.lambda_scale;
    // Supervised restart: attempt > 0 re-runs from scratch (never from the
    // diverged trajectory's spill) with the guardian's compounding λ/step
    // retune lifted to the whole-run level.
    cfg = core::retuned_for_restart(cfg, job.rec.attempt);
    if (!job.rec.resume_from.empty()) {
      // Crash recovery: continue the interrupted trajectory bit-for-bit from
      // the last journaled XPCK spill (PR 2's restore contract).
      cfg.resume_path = job.rec.resume_from;
    }
    std::string spill_path;
    if (!cfg_.spill_dir.empty()) {
      spill_path = cfg_.spill_dir + "/job" + std::to_string(id) + ".xpck";
      cfg.checkpoint_out = spill_path;
      cfg.checkpoint_period = cfg_.spill_period;
    }

    // The placer materializes its private mutable run state from the shared
    // snapshot copy-on-write; `db` below is that per-run database (LG/DP
    // mutate positions, never the shared core).
    core::GlobalPlacer placer(snap, cfg);
    db::Database& db = placer.db();
    placer.set_stop_token(&job.token);
    placer.set_checkpoint_observer(
        [this, id](int next_iter, const std::string& path) {
          // The XPCK is durable on disk; journal it as the job's new resume
          // point. serve_crash@job:N fires here — right after the snapshot
          // the chaos lane expects recovery to resume from.
          {
            std::lock_guard<std::mutex> lock(mutex_);
            journal_append_locked(JournalEvent::kCheckpoint, id,
                                  encode_checkpoint(next_iter, path));
          }
          if (cfg_.faults.crash_armed_for(id)) cfg_.faults.crash_now(id);
        });
    if (cfg_.faults.diverge_armed_for(id) && job.rec.attempt == 0) {
      // diverge@job:N: exhaust the guardian's in-run rollback budget on the
      // first attempt so the run ends kDiverged and the supervisor's retry
      // path engages deterministically.
      core::FaultPlan fp;
      for (int it : {2, 4, 6, 8, 10, 12}) {
        core::FaultEvent ev;
        ev.kind = core::FaultEvent::Kind::kNonfiniteGrad;
        ev.iter = it;
        fp.events.push_back(ev);
      }
      placer.guardian().set_fault_plan(std::move(fp));
    }
    placer.recorder().set_observer([this, &job](
                                       const core::IterationRecord& r) {
      std::lock_guard<std::mutex> lock(mutex_);
      JobEvent ev;
      ev.seq = job.next_seq++;
      ev.iter = r.iter;
      ev.hpwl = r.hpwl;
      ev.overflow = r.overflow;
      ev.omega = r.omega;
      job.events.push_back(ev);
      if (job.events.size() > cfg_.event_capacity) {
        job.events.pop_front();
        ++job.dropped;
        job.rec.events_dropped = job.dropped;
        ++events_dropped_total_;
        telemetry::Registry::global().counter("serve.events.dropped").inc();
      }
      job.cv.notify_all();
    });

    const core::GlobalPlaceResult gp = placer.run();
    if (gp.rollbacks > 0) {
      telemetry::Registry::global().counter("serve.guardian_rollbacks")
          .inc(static_cast<std::uint64_t>(gp.rollbacks));
    }

    if (gp.stop_reason == core::StopReason::kDiverged) {
      // The in-run guardian spent its rollback budget; escalate to the
      // supervisor: re-admit with backoff + retune, budget permitting.
      std::lock_guard<std::mutex> lock(mutex_);
      if (maybe_schedule_retry_locked(job, "diverged")) return;
    }

    bool stopped = gp.stop_reason == core::StopReason::kCancelled ||
                   gp.stop_reason == core::StopReason::kDeadline;
    core::StopReason reason = gp.stop_reason;
    double dp_hpwl = 0.0;
    bool legalized = false;

    // LG/DP phase boundary polls: a stop that lands after GP converged still
    // cuts the flow short (deadline keeps its meaning end-to-end).
    if (spec.full_flow && !stopped) {
      if (const StopCause c = job.token.check(); c != StopCause::kNone) {
        stopped = true;
        reason = stop_reason_from(c);
      } else {
        {
          XP_TRACE_SCOPE("serve.lg");
          lg::abacus_legalize(db);
        }
        XP_TRACE_SCOPE("serve.dp");
        dp::DetailedPlaceConfig dcfg;
        dcfg.stop = &job.token;
        dp::detailed_place(db, dcfg);
        dp_hpwl = db.hpwl();
        legalized = true;
        if (const StopCause c2 = job.token.check(); c2 != StopCause::kNone) {
          stopped = true;  // fired mid-DP; placement is legal regardless
          reason = stop_reason_from(c2);
        }
      }
    }

    std::lock_guard<std::mutex> lock(mutex_);
    job.rec.stop_reason = reason;
    job.rec.hpwl = gp.hpwl;
    job.rec.overflow = gp.overflow;
    job.rec.iterations = gp.iterations;
    job.rec.gp_seconds = gp.gp_seconds;
    job.rec.dp_hpwl = dp_hpwl;
    job.rec.legalized = legalized;
    job.rec.spill_path = spill_path;
    finish_job_locked(job, stopped ? JobState::kCancelled : JobState::kDone);
  } catch (const std::bad_alloc&) {
    // Allocation failure is transient by assumption (a co-resident job's
    // peak, not a broken spec) — retryable, unlike a parse error.
    XP_ERROR("job %llu hit allocation failure",
             static_cast<unsigned long long>(id));
    std::lock_guard<std::mutex> lock(mutex_);
    if (maybe_schedule_retry_locked(job, "alloc_fail")) return;
    job.rec.error = "allocation failure";
    finish_job_locked(job, JobState::kFailed);
  } catch (const std::exception& e) {
    XP_ERROR("job %llu failed: %s", static_cast<unsigned long long>(id),
             e.what());
    std::lock_guard<std::mutex> lock(mutex_);
    job.rec.error = e.what();
    finish_job_locked(job, JobState::kFailed);
  }
}

void PlacementServer::count_terminal_locked(JobState state) {
  switch (state) {
    case JobState::kDone: ++completed_; break;
    case JobState::kCancelled: ++cancelled_; break;
    case JobState::kFailed: ++failed_; break;
    case JobState::kShed: ++shed_; break;
    default: break;
  }
}

void PlacementServer::finish_job_locked(Job& job, JobState state) {
  if (job.rec.state == JobState::kRunning) --running_;
  job.rec.state = state;
  job.rec.finished_s = log::elapsed_seconds();
  job.rec.events_dropped = job.dropped;
  count_terminal_locked(state);
  // Terminal transition → journal, so a restart restores this job straight
  // into the result store instead of re-running it.
  journal_append_locked(JournalEvent::kFinish, job.rec.id,
                        encode_finish(job.rec));
  // SLO accounting: latency histograms (percentiles derive from these) and
  // deadline misses. Queue wait / run are only meaningful for jobs that got
  // a worker slot; e2e covers every terminal job including queue-cancelled.
  if (job.rec.started_s > 0.0) {
    queue_wait_hist_->observe(job.rec.started_s - job.rec.submitted_s);
    run_hist_->observe(job.rec.finished_s - job.rec.started_s);
  }
  e2e_hist_->observe(job.rec.finished_s - job.rec.submitted_s);
  if (job.rec.stop_reason == core::StopReason::kDeadline) {
    ++deadline_missed_;
    telemetry::Registry::global().counter("serve.deadline_missed").inc();
  }
  // A dedup entry must only ever serve successful results: a job that
  // settled anything but kDone is dropped from the index so the next
  // identical submit runs fresh.
  if (state != JobState::kDone && job.dedup_key.first != 0) {
    const auto it = dedup_index_.find(job.dedup_key);
    if (it != dedup_index_.end() && it->second == job.rec.id) {
      dedup_index_.erase(it);
    }
  }
  terminal_order_.push_back(job.rec.id);
  evict_terminal_locked();
  publish_job_metrics(job.rec);
  job.cv.notify_all();
  batch_cv_.notify_all();  // batch_wait re-aggregates on any settle
}

void PlacementServer::evict_terminal_locked() {
  while (terminal_order_.size() > cfg_.result_capacity) {
    const std::uint64_t victim = terminal_order_.front();
    terminal_order_.pop_front();
    const auto it = jobs_.find(victim);
    if (it != jobs_.end()) {
      // Retention policy (DESIGN.md §12): per-job metric families and trace
      // labels live exactly as long as the job record — evicting the record
      // GCs `serve.job.<label>.*` and the trace-label entry, so a long-lived
      // daemon's registry stays bounded by result_capacity.
      telemetry::Registry::global().remove_prefix(
          "serve.job." + it->second->rec.spec.label + ".");
      telemetry::Tracer::global().forget_trace(it->second->rec.trace_id);
      if (it->second->dedup_key.first != 0) {
        // The cached result is gone with the record; stop advertising it.
        const auto dit = dedup_index_.find(it->second->dedup_key);
        if (dit != dedup_index_.end() && dit->second == victim) {
          dedup_index_.erase(dit);
        }
      }
      jobs_.erase(it);  // waiters still holding the shared_ptr are safe
    }
  }
}

// ---------------------------------------------------------------------------
// Durability & self-healing (DESIGN.md §13)
// ---------------------------------------------------------------------------

void PlacementServer::journal_append_locked(JournalEvent type,
                                            std::uint64_t job_id,
                                            std::string payload) {
  if (!journal_.is_open() || journal_degraded_) return;
  if (!journal_.append({static_cast<std::uint32_t>(type), job_id,
                        wall_seconds(), std::move(payload)})) {
    // Keep serving from memory, but remember durability is gone: admission
    // treats a degraded journal as saturation (see submit()).
    journal_degraded_ = true;
    telemetry::Registry::global().counter("serve.journal.degraded").inc();
    XP_ERROR("journal append failed — durability degraded, serving from "
             "memory only");
  }
}

void PlacementServer::recover_from_journal() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(cfg_.state_dir, ec);
  const std::string path = cfg_.state_dir + "/journal.xpjl";

  const io::JournalReplay replay = io::read_journal(path);
  RecoveryPlan plan = build_recovery_plan(replay);
  if (replay.torn_tail) {
    XP_WARN("journal %s: torn final record (crash mid-append); %zu intact "
            "record(s) replayed", path.c_str(), plan.records);
  }
  if (replay.corrupt) {
    XP_WARN("journal %s: corrupt record; replay kept the %zu trusted "
            "record(s) before it", path.c_str(), plan.records);
  }

  std::lock_guard<std::mutex> lock(mutex_);  // workers not started yet

  next_id_ = std::max<std::uint64_t>(next_id_, plan.max_id + 1);
  next_batch_id_ = std::max<std::uint64_t>(next_batch_id_,
                                           plan.max_batch_id + 1);
  // Design refs survive every kind of restart: register their sources for
  // lazy re-parse (no parse happens here — first reference re-parses).
  // `rejournal` writes them into a fresh journal; otherwise compaction
  // already re-emitted them.
  const auto register_designs = [&](bool rejournal) {
    for (const RecoveredDesign& rd : plan.designs) {
      designs_.register_source(rd.hash, rd.source);
      if (rejournal) {
        journal_design_ref_locked(rd.hash, rd.source);
      } else {
        journaled_designs_[rd.hash] = true;
      }
    }
  };

  if (replay.missing || plan.clean_shutdown) {
    if (!journal_.open(path, /*truncate=*/true)) journal_degraded_ = true;
    // Uploaded designs outlive a clean shutdown (batches and job results do
    // not — same retention as the result store): re-register the sources and
    // re-journal their refs into the fresh journal.
    register_designs(/*rejournal=*/true);
    XP_INFO("journal %s: clean start%s", path.c_str(),
            replay.missing ? " (fresh state dir)" : " (previous shutdown drained)");
  } else {
    // Compact the history into folded per-job state, then restore it: live
    // jobs re-enqueue in original submit order (the queue comparator then
    // reproduces the original priority → deadline → FIFO pop order),
    // interrupted running jobs carry their newest XPCK as the resume point,
    // and terminal jobs land straight in the result store.
    if (!io::rewrite_journal(path, compaction_records(plan)) ||
        !journal_.open(path, /*truncate=*/false)) {
      journal_degraded_ = true;
    }
    register_designs(/*rejournal=*/false);
    for (const RecoveredBatch& rb : plan.batches) {
      batches_[rb.id].info = rb.info;
    }

    const double now_wall = wall_seconds();
    std::size_t live = 0, restored = 0;
    for (RecoveredJob& rj : plan.jobs) {
      const std::uint64_t id = rj.rec.id;
      auto job = std::make_shared<Job>();
      job->rec = std::move(rj.rec);
      job->rec.recovered = true;
      job->rec.trace_id = telemetry::TraceContext::new_id();
      job->submit_us = telemetry::Tracer::now_us();
      job->rec.submitted_s = log::elapsed_seconds();
      ++submitted_;
      Job& ref = *job;
      jobs_.emplace(id, std::move(job));

      if (rj.terminal) {
        // Already settled before the crash: the record carries its decoded
        // terminal slice (no re-journal, no latency observation — those
        // happened in the previous process lifetime).
        ref.rec.finished_s = ref.rec.submitted_s;
        count_terminal_locked(ref.rec.state);
        if (ref.rec.state == JobState::kDone && ref.rec.spec.dedup &&
            ref.rec.spec.design_hash != 0) {
          // Restored successful results keep serving dedup hits: the cache
          // survives the restart along with the record.
          ref.dedup_key = {ref.rec.spec.design_hash, config_hash(ref.rec.spec)};
          dedup_index_[ref.dedup_key] = id;
        }
        terminal_order_.push_back(id);
        publish_job_metrics(ref.rec);
        ++restored;
        continue;
      }

      // Deadline accounting across the restart: the journal carries wall
      // time, so elapsed real time (including the downtime) still counts
      // against the job's deadline.
      if (ref.rec.spec.deadline_s > 0) {
        const double remaining =
            ref.rec.spec.deadline_s - (now_wall - rj.submit_time_s);
        if (remaining <= 0) {
          ref.rec.stop_reason = core::StopReason::kDeadline;
          finish_job_locked(ref, JobState::kCancelled);
          continue;
        }
        ref.token.set_timeout(remaining);
        ref.queue_deadline = steady_seconds() + remaining;
      }
      if (rj.cancel_requested) {
        // Cancel was journaled but the settle never landed before the crash.
        ref.rec.stop_reason = core::StopReason::kCancelled;
        finish_job_locked(ref, JobState::kCancelled);
        continue;
      }

      if (rj.was_running && !rj.checkpoint_path.empty() &&
          fs::exists(rj.checkpoint_path)) {
        ref.rec.resume_from = rj.checkpoint_path;
      }
      ref.rec.state = JobState::kQueued;
      if (ref.rec.spec.dedup && ref.rec.spec.design_hash != 0) {
        ref.dedup_key = {ref.rec.spec.design_hash, config_hash(ref.rec.spec)};
        dedup_index_[ref.dedup_key] = id;
      }
      QueuedJob qj;
      qj.id = id;
      qj.priority = ref.rec.spec.priority;
      qj.deadline = ref.queue_deadline;
      queue_.push(qj);
      ++live;
    }
    // Portfolio kill counts are not journaled per kill (the member's kCancel/
    // kFinish already is); approximate the tally from members that settled
    // cancelled. The racer resumes judging the surviving members as soon as
    // its thread starts.
    for (auto& [bid, b] : batches_) {
      if (!b.info.race) continue;
      for (const std::uint64_t id : b.info.job_ids) {
        const auto jit = jobs_.find(id);
        if (jit != jobs_.end() &&
            jit->second->rec.state == JobState::kCancelled) {
          ++b.killed;
        }
      }
    }
    evict_terminal_locked();
    recovered_ = live;
    telemetry::Registry::global().counter("serve.recovered")
        .inc(static_cast<std::uint64_t>(live));
    XP_INFO("journal %s: recovering %zu job(s) (%zu re-enqueued, %zu terminal "
            "restored)", path.c_str(), plan.jobs.size() - restored, live,
            restored);
  }
  // Journal fault arming (XPLACE_FAULT journal_torn / disk_full) — applied
  // after recovery so the replay itself stays healthy.
  if (cfg_.faults.journal_torn) journal_.arm_torn_write();
  if (cfg_.faults.disk_full) journal_.arm_disk_full();
}

bool PlacementServer::maybe_schedule_retry_locked(Job& job,
                                                  const char* outcome) {
  if (shut_down_) return false;
  if (cfg_.max_retries <= 0 || job.rec.attempt >= cfg_.max_retries) {
    return false;
  }
  if (job.token.check() != StopCause::kNone) return false;  // cancel wins
  const int failed_attempt = job.rec.attempt;
  double backoff =
      std::min(cfg_.retry_backoff_s * std::pow(2.0, failed_attempt),
               cfg_.retry_backoff_max_s);
  backoff *= 1.0 + retry_jitter(job.rec.id, failed_attempt);

  JobAttempt att;
  att.number = failed_attempt;
  att.outcome = outcome;
  att.backoff_s = backoff;
  att.started_s = job.rec.started_s;
  att.finished_s = log::elapsed_seconds();
  job.rec.attempts.push_back(std::move(att));
  job.rec.attempt = failed_attempt + 1;
  if (job.rec.state == JobState::kRunning) --running_;
  job.rec.state = JobState::kQueued;
  job.rec.started_s = 0.0;
  // Never resume a broken trajectory's spill: the retry restarts from
  // scratch with retuned_for_restart's gentler λ/step schedule.
  job.rec.resume_from.clear();

  ++retries_;
  telemetry::Registry::global().counter("serve.retries").inc();
  RetryInfo info;
  info.attempt = job.rec.attempt;
  info.backoff_s = backoff;
  info.reason = outcome;
  journal_append_locked(JournalEvent::kRetry, job.rec.id, encode_retry(info));
  retry_pending_.push_back({steady_seconds() + backoff, job.rec.id});
  XP_WARN("job %llu attempt %d ended %s; retry as attempt %d in %.2fs "
          "(budget %d)",
          static_cast<unsigned long long>(job.rec.id), failed_attempt, outcome,
          job.rec.attempt, backoff, cfg_.max_retries);
  job.cv.notify_all();
  retry_cv_.notify_all();
  return true;
}

void PlacementServer::retry_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!retry_stop_) {
    if (retry_pending_.empty()) {
      retry_cv_.wait(lock, [&] {
        return retry_stop_ || !retry_pending_.empty();
      });
      continue;
    }
    const auto due = std::min_element(
        retry_pending_.begin(), retry_pending_.end(),
        [](const PendingRetry& a, const PendingRetry& b) {
          return a.due_s < b.due_s;
        });
    const double now = steady_seconds();
    if (due->due_s > now) {
      retry_cv_.wait_for(lock,
                         std::chrono::duration<double>(due->due_s - now));
      continue;
    }
    const std::uint64_t id = due->id;
    retry_pending_.erase(due);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second->rec.state != JobState::kQueued) {
      continue;  // cancelled (or evicted) while backing off
    }
    Job& job = *it->second;
    QueuedJob qj;
    qj.id = id;
    qj.priority = job.rec.spec.priority;
    qj.deadline = job.queue_deadline;
    if (!queue_.push(qj)) {
      // The queue filled (or closed) while this job backed off — it lost its
      // seat; settle as shed rather than stall its waiters forever.
      job.rec.error = "shed: queue unavailable at retry re-admission";
      finish_job_locked(job, JobState::kShed);
    }
  }
}

bool PlacementServer::shed_weakest_locked(int incoming_priority,
                                          const char* cause) {
  QueuedJob victim;
  if (!queue_.weakest(&victim)) return false;
  // Strictly lower priority only: shedding a peer for a peer would let two
  // equal clients evict each other's work in a loop.
  if (victim.priority >= incoming_priority) return false;
  if (!queue_.remove(victim.id)) return false;
  const auto it = jobs_.find(victim.id);
  if (it != jobs_.end() && !is_terminal(it->second->rec.state)) {
    it->second->rec.error =
        std::string("shed: ") + cause + ", displaced by higher-priority work";
    finish_job_locked(*it->second, JobState::kShed);
    XP_WARN("job %llu shed (%s)",
            static_cast<unsigned long long>(victim.id), cause);
  }
  return true;
}

void PlacementServer::publish_job_metrics(const JobRecord& rec) {
  telemetry::Registry& reg = telemetry::Registry::global();
  switch (rec.state) {
    case JobState::kDone: reg.counter("serve.completed").inc(); break;
    case JobState::kCancelled: reg.counter("serve.cancelled").inc(); break;
    case JobState::kFailed: reg.counter("serve.failed").inc(); break;
    case JobState::kShed: reg.counter("serve.shed").inc(); break;
    default: break;
  }
  const std::string prefix = "serve.job." + rec.spec.label;
  reg.gauge(prefix + ".hpwl").set(rec.hpwl);
  reg.gauge(prefix + ".iterations").set(rec.iterations);
  reg.gauge(prefix + ".gp_seconds").set(rec.gp_seconds);
  reg.gauge(prefix + ".stop_reason")
      .set(static_cast<double>(rec.stop_reason));
  reg.gauge(prefix + ".events_dropped")
      .set(static_cast<double>(rec.events_dropped));
}

}  // namespace xplace::server
