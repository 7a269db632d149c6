// Append-only, checksummed, fsync'd record journal (the WAL under
// xplace_serve's --state-dir).
//
// Layout (little-endian, no padding):
//   u32 magic 0x4C4A5058 ("XPJL") | u32 version
//   record*
// where each record is
//   u32 body_len | body | u64 FNV-1a checksum of body
//   body := u32 type | u64 job_id | f64 time_s | payload bytes
//
// The journal only frames bytes: record `type` values and payload encodings
// belong to the caller (the serving layer's recovery module). Properties:
//
//   * every append is written as one frame and fsync'd before it returns, so
//     an acknowledged record survives a process kill;
//   * the reader tolerates a torn final record (a crash mid-append): replay
//     returns every intact record and flags `torn_tail` instead of failing;
//   * a checksum-mismatched record stops replay at that point (`corrupt`) —
//     nothing after a corrupt frame can be trusted;
//   * rewrite_journal() compacts atomically via the checkpoint_io tmp+rename
//     idiom, so a crash mid-compaction leaves the previous journal intact.
//
// Fault injection (deterministic tests of the recovery paths): arm_torn_write
// makes the next append stop halfway through its frame and then behave as if
// the process had died (subsequent appends fail); arm_disk_full makes every
// subsequent append fail cleanly (the ENOSPC story).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xplace::io {

/// One journal frame. `type` / `payload` semantics are the caller's;
/// `time_s` is wall-clock (CLOCK_REALTIME) seconds so replay after a restart
/// can reason about elapsed real time (deadline accounting).
struct JournalRecord {
  std::uint32_t type = 0;
  std::uint64_t job_id = 0;
  double time_s = 0.0;
  std::string payload;
};

/// Upper bound on one record body; a longer length field during replay is
/// treated as corruption, not an allocation request.
inline constexpr std::uint32_t kMaxJournalRecordBytes = 1u << 20;

class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` for appending (the file is created with a header when
  /// missing; `truncate` starts a fresh journal). False on I/O failure.
  bool open(const std::string& path, bool truncate);
  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Appends one frame and fsyncs. False when the write cannot be made
  /// durable (I/O error, injected disk_full, or a previous torn write) —
  /// the caller decides whether to degrade or shed.
  bool append(const JournalRecord& rec);

  /// Bytes in the journal file (header + every acknowledged frame).
  std::uint64_t size_bytes() const { return size_; }
  std::uint64_t records_written() const { return records_; }

  void close();

  // ---- fault injection (XPLACE_FAULT journal_torn / disk_full) -------------
  /// The next append writes only half of its frame, fsyncs, and then behaves
  /// as a dead writer — simulating a crash mid-append.
  void arm_torn_write() { torn_armed_ = true; }
  /// Every subsequent append fails without writing (ENOSPC simulation).
  void arm_disk_full() { disk_full_ = true; }

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
  std::uint64_t records_ = 0;
  bool torn_armed_ = false;
  bool disk_full_ = false;
  bool dead_ = false;  ///< a torn write happened; the "process" is gone
};

/// Replay result: every record that could be trusted, in append order.
struct JournalReplay {
  std::vector<JournalRecord> records;
  bool missing = false;    ///< no journal file (a genuinely fresh start)
  bool torn_tail = false;  ///< final record incomplete (crash mid-append)
  bool corrupt = false;    ///< replay stopped at a checksum/structure mismatch
  std::uint64_t bytes_scanned = 0;
};

/// Reads `path` tolerantly per the header contract. A missing file is not an
/// error (`missing` set, zero records). Throws std::runtime_error only for a
/// present file whose header is not a journal (wrong magic/version) — that is
/// operator error, not crash damage.
JournalReplay read_journal(const std::string& path);

/// Atomically replaces `path` with a journal holding exactly `records`
/// (tmp + fsync + rename). False on I/O failure; the previous journal file
/// is left untouched in that case.
bool rewrite_journal(const std::string& path,
                     const std::vector<JournalRecord>& records);

}  // namespace xplace::io
