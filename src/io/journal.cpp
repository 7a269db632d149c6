#include "io/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/bytes.h"
#include "util/logging.h"

namespace xplace::io {

namespace {

constexpr std::uint32_t kJournalMagic = 0x4C4A5058;  // "XPJL" little-endian
constexpr std::uint32_t kJournalVersion = 1;

/// u32 type | u64 job_id | f64 time_s: the body bytes before the payload.
constexpr std::uint32_t kBodyHeaderBytes = 20;

std::string frame_record(const JournalRecord& rec) {
  util::ByteWriter w;
  w(static_cast<std::uint32_t>(kBodyHeaderBytes + rec.payload.size()),
    rec.type, rec.job_id, rec.time_s);
  w.append(rec.payload);
  const std::string_view body = std::string_view(w.str()).substr(4);
  w(util::fnv1a64(body.data(), body.size()));
  return w.take();
}

std::string journal_header() {
  util::ByteWriter w;
  w(kJournalMagic, kJournalVersion);
  return w.take();
}

bool write_fully(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// JournalWriter
// ---------------------------------------------------------------------------

JournalWriter::~JournalWriter() { close(); }

bool JournalWriter::open(const std::string& path, bool truncate) {
  close();
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    XP_ERROR("journal: cannot open '%s': %s", path.c_str(),
             std::strerror(errno));
    return false;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  path_ = path;
  size_ = static_cast<std::uint64_t>(st.st_size);
  records_ = 0;
  dead_ = false;
  if (size_ == 0) {
    const std::string header = journal_header();
    if (!write_fully(fd_, header.data(), header.size()) || ::fsync(fd_) != 0) {
      close();
      return false;
    }
    size_ = header.size();
  }
  return true;
}

bool JournalWriter::append(const JournalRecord& rec) {
  if (fd_ < 0 || dead_) return false;
  if (disk_full_) return false;  // injected ENOSPC: fail without writing
  const std::string frame = frame_record(rec);
  if (torn_armed_) {
    // Crash-mid-append simulation: half the frame lands on disk, then the
    // writer is gone. Replay must treat the partial frame as a torn tail.
    torn_armed_ = false;
    dead_ = true;
    write_fully(fd_, frame.data(), frame.size() / 2);
    ::fsync(fd_);
    size_ += frame.size() / 2;
    return false;
  }
  if (!write_fully(fd_, frame.data(), frame.size())) return false;
  if (::fsync(fd_) != 0) return false;
  size_ += frame.size();
  ++records_;
  return true;
}

void JournalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

JournalReplay read_journal(const std::string& path) {
  JournalReplay out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.missing = true;
    return out;
  }
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  out.bytes_scanned = buf.size();

  util::ByteReader r(buf);
  std::uint32_t magic = 0, version = 0;
  r(magic, version);
  if (!r.ok()) {
    // Shorter than a header: a journal whose very first write was torn.
    out.torn_tail = !buf.empty();
    return out;
  }
  if (magic != kJournalMagic) {
    throw std::runtime_error(path + ": not an Xplace journal (bad magic)");
  }
  if (version != kJournalVersion) {
    throw std::runtime_error(path + ": unsupported journal version " +
                             std::to_string(version));
  }

  while (r.remaining() > 0) {
    std::uint32_t body_len = 0;
    r(body_len);
    if (r.ok() &&
        (body_len < kBodyHeaderBytes || body_len > kMaxJournalRecordBytes)) {
      out.corrupt = true;  // structurally impossible frame
      break;
    }
    const char* body = r.take(body_len);
    std::uint64_t stored_sum = 0;
    r(stored_sum);
    if (!r.ok()) {
      out.torn_tail = true;  // frame cut off in its length, body or checksum
      break;
    }
    if (stored_sum != util::fnv1a64(body, body_len)) {
      out.corrupt = true;
      break;
    }
    JournalRecord rec;
    util::ByteReader b(body, body_len);
    b(rec.type, rec.job_id, rec.time_s);
    rec.payload.assign(body + kBodyHeaderBytes, body_len - kBodyHeaderBytes);
    out.records.push_back(std::move(rec));
  }
  return out;
}

bool rewrite_journal(const std::string& path,
                     const std::vector<JournalRecord>& records) {
  const std::string tmp = path + ".tmp";
  {
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    std::string payload = journal_header();
    for (const JournalRecord& rec : records) payload.append(frame_record(rec));
    const bool ok = write_fully(fd, payload.data(), payload.size()) &&
                    ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace xplace::io
