#include "server/recovery.h"

#include <algorithm>
#include <tuple>

#include "util/bytes.h"

namespace xplace::server {

namespace {

// One field list per payload, in wire order; encode() and decode() both walk
// it. Members keep their own widths (int = i32, long and size_t = i64/u64,
// bool = u8, enums = i32).

template <typename Ar>
void fields(Ar& ar, JobSpec& s, int& attempt) {
  ar(s.aux, s.demo_cells, s.demo_seed, s.max_iters, s.grid, s.threads,
     s.full_flow, s.priority, s.deadline_s, s.label, attempt);
  // Design-store, sweep and perturbed-restart fields, in the order they were
  // appended to the payload.
  ar(s.design_hash, s.seed, s.target_density, s.lambda_init, s.batch_id,
     s.dedup, s.init_noise_scale, s.gamma_scale, s.lambda_scale);
}

template <typename Ar>
void fields(Ar& ar, JobRecord& r) {
  ar(r.state, r.stop_reason, r.hpwl, r.overflow, r.iterations, r.gp_seconds,
     r.dp_hpwl, r.legalized, r.error);
}

template <typename Ar>
void fields(Ar& ar, int& next_iter, std::string& path) {
  ar(next_iter, path);
}

template <typename Ar>
void fields(Ar& ar, RetryInfo& r) {
  ar(r.attempt, r.backoff_s, r.reason);
}

template <typename Ar>
void fields(Ar& ar, DesignStore::SourceRef& d) {
  ar(d.demo, d.aux, d.cells, d.seed);
}

template <typename Ar>
void fields(Ar& ar, BatchInfo& b) {
  ar(b.design_hash, b.label);
  const std::size_t n = ar.count(b.job_ids, 9);  // u64 id + u8 deduped each
  if constexpr (Ar::kReads) b.deduped.resize(n);
  for (std::size_t i = 0; i < n; ++i) ar(b.job_ids[i], b.deduped[i]);
  if (auto* r = ar.opt(b.race)) {
    ar(r->base_seed, r->k, r->deadline_s, r->policy.min_iter,
       r->policy.hpwl_margin, r->policy.overflow_slack,
       r->policy.min_survivors, r->policy.no_kill);
  }
}

template <typename... T>
std::string encode(const T&... v) {
  util::ByteWriter w;
  fields(w, const_cast<T&>(v)...);  // the writer only reads the members
  return w.take();
}

template <typename... T>
bool decode(const std::string& payload, T*... out) {
  util::ByteReader r(payload);
  std::tuple<T...> tmp{*out...};
  std::apply([&r](T&... v) { fields(r, v...); }, tmp);
  if (!r.ok()) return false;
  std::tie(*out...) = std::move(tmp);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

std::string encode_submit(const JobSpec& spec, int attempt) {
  return encode(spec, attempt);
}
bool decode_submit(const std::string& payload, JobSpec* spec, int* attempt) {
  return decode(payload, spec, attempt);
}

std::string encode_finish(const JobRecord& rec) { return encode(rec); }
bool decode_finish(const std::string& payload, JobRecord* rec) {
  return decode(payload, rec);
}

std::string encode_checkpoint(int next_iter, const std::string& path) {
  return encode(next_iter, path);
}
bool decode_checkpoint(const std::string& payload, int* next_iter,
                       std::string* path) {
  return decode(payload, next_iter, path);
}

std::string encode_retry(const RetryInfo& info) { return encode(info); }
bool decode_retry(const std::string& payload, RetryInfo* info) {
  return decode(payload, info);
}

std::string encode_design_ref(const DesignStore::SourceRef& ref) {
  return encode(ref);
}
bool decode_design_ref(const std::string& payload,
                       DesignStore::SourceRef* ref) {
  return decode(payload, ref);
}

std::string encode_batch(const BatchInfo& info) { return encode(info); }
bool decode_batch(const std::string& payload, BatchInfo* info) {
  return decode(payload, info);
}

// ---------------------------------------------------------------------------
// Recovery planning
// ---------------------------------------------------------------------------

RecoveryPlan build_recovery_plan(const io::JournalReplay& replay) {
  RecoveryPlan plan;
  plan.torn_tail = replay.torn_tail;
  plan.corrupt = replay.corrupt;
  plan.records = replay.records.size();

  const auto find = [&plan](std::uint64_t id) -> RecoveredJob* {
    for (RecoveredJob& j : plan.jobs) {
      if (j.rec.id == id) return &j;
    }
    return nullptr;
  };

  for (const io::JournalRecord& rec : replay.records) {
    const auto type = static_cast<JournalEvent>(rec.type);
    // Non-job records reuse the job_id slot for other identities (design
    // hash, batch id) — they must not poison job-id allocation.
    if (type != JournalEvent::kDesignRef && type != JournalEvent::kBatch &&
        type != JournalEvent::kCleanShutdown) {
      plan.max_id = std::max(plan.max_id, rec.job_id);
    }
    switch (type) {
      case JournalEvent::kSubmit: {
        RecoveredJob job;
        job.rec.id = rec.job_id;
        job.submit_time_s = rec.time_s;
        if (!decode_submit(rec.payload, &job.rec.spec, &job.rec.attempt)) {
          break;
        }
        if (RecoveredJob* existing = find(rec.job_id)) {
          *existing = std::move(job);  // duplicate id: newest submit wins
        } else {
          plan.jobs.push_back(std::move(job));
        }
        break;
      }
      case JournalEvent::kStart:
        if (RecoveredJob* job = find(rec.job_id)) job->was_running = true;
        break;
      case JournalEvent::kCheckpoint:
        if (RecoveredJob* job = find(rec.job_id)) {
          decode_checkpoint(rec.payload, &job->checkpoint_iter,
                            &job->checkpoint_path);
        }
        break;
      case JournalEvent::kFinish:
        if (RecoveredJob* job = find(rec.job_id)) {
          if (decode_finish(rec.payload, &job->rec)) {
            job->terminal = true;
            job->was_running = false;
          }
        }
        break;
      case JournalEvent::kCancel:
        if (RecoveredJob* job = find(rec.job_id)) job->cancel_requested = true;
        break;
      case JournalEvent::kRetry:
        if (RecoveredJob* job = find(rec.job_id)) {
          RetryInfo info;
          if (!decode_retry(rec.payload, &info)) break;
          job->rec.attempts.push_back(
              {info.attempt - 1, std::move(info.reason), info.backoff_s});
          job->rec.attempt = info.attempt;
          job->was_running = false;
          job->terminal = false;
          // A retried attempt never resumes the diverged trajectory's spill.
          job->checkpoint_path.clear();
          job->checkpoint_iter = 0;
        }
        break;
      case JournalEvent::kCleanShutdown:
        break;  // positional: only meaningful as the final record
      case JournalEvent::kDesignRef: {
        DesignStore::SourceRef info;
        if (!decode_design_ref(rec.payload, &info)) break;
        bool seen = false;
        for (const RecoveredDesign& d : plan.designs) {
          if (d.hash == rec.job_id) {
            seen = true;
            break;
          }
        }
        if (!seen) plan.designs.push_back(RecoveredDesign{rec.job_id, std::move(info)});
        break;
      }
      case JournalEvent::kBatch: {
        BatchInfo info;
        if (!decode_batch(rec.payload, &info)) break;
        plan.max_batch_id = std::max(plan.max_batch_id, rec.job_id);
        bool seen = false;
        for (RecoveredBatch& b : plan.batches) {
          if (b.id == rec.job_id) {
            b.info = std::move(info);  // duplicate id: newest wins
            seen = true;
            break;
          }
        }
        if (!seen) {
          plan.batches.push_back(RecoveredBatch{rec.job_id, std::move(info), rec.time_s});
        }
        break;
      }
    }
  }
  plan.clean_shutdown =
      !replay.records.empty() &&
      static_cast<JournalEvent>(replay.records.back().type) ==
          JournalEvent::kCleanShutdown;
  return plan;
}

std::vector<io::JournalRecord> compaction_records(const RecoveryPlan& plan) {
  std::vector<io::JournalRecord> out;
  const auto emit = [&out](JournalEvent type, std::uint64_t id, double time_s,
                           std::string payload = {}) {
    out.push_back({static_cast<std::uint32_t>(type), id, time_s,
                   std::move(payload)});
  };
  // Designs first: jobs and batches reference them by hash, and recovery
  // registers sources before it re-admits any work.
  for (const RecoveredDesign& d : plan.designs) {
    emit(JournalEvent::kDesignRef, d.hash, 0.0, encode_design_ref(d.source));
  }
  for (const RecoveredJob& job : plan.jobs) {
    const std::uint64_t id = job.rec.id;
    const double t = job.submit_time_s;
    emit(JournalEvent::kSubmit, id, t, encode_submit(job.rec.spec, 0));
    for (const JobAttempt& att : job.rec.attempts) {
      emit(JournalEvent::kRetry, id, t,
           encode_retry({att.number + 1, att.backoff_s, att.outcome}));
    }
    // Re-emit the start so a crash right after compaction still folds this
    // job as interrupted-while-running (its checkpoint stays the resume
    // point instead of being discarded as a stale queued-job artifact).
    if (job.was_running) emit(JournalEvent::kStart, id, t);
    if (!job.checkpoint_path.empty()) {
      emit(JournalEvent::kCheckpoint, id, t,
           encode_checkpoint(job.checkpoint_iter, job.checkpoint_path));
    }
    if (job.terminal) {
      emit(JournalEvent::kFinish, id, t, encode_finish(job.rec));
    } else if (job.cancel_requested) {
      emit(JournalEvent::kCancel, id, t);
    }
  }
  for (const RecoveredBatch& b : plan.batches) {
    emit(JournalEvent::kBatch, b.id, b.submit_time_s, encode_batch(b.info));
  }
  return out;
}

}  // namespace xplace::server
