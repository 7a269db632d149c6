#include "io/checkpoint_io.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/bytes.h"

namespace xplace::io {
namespace {

constexpr std::uint32_t kMagic = 0x4B435058;  // "XPCK" little-endian

// The XPCK body (between the version and the checksum), one list for the
// writer and the reader.
template <typename Ar>
void fields(Ar& ar, core::StateBlob& blob) {
  ar.count(blob.arrays, 12);  // u32 name length + u64 float count, at least
  for (auto& [name, v] : blob.arrays) {
    ar(name);
    ar.floats(v);
  }
  ar.count(blob.scalars, 12);  // u32 name length + f64
  for (auto& [name, v] : blob.scalars) ar(name, v);
}

template <typename Ar>
void fields(Ar& ar, core::RunCheckpoint& ck) {
  ar(ck.design, ck.n_total, ck.n_movable, ck.optimizer_kind, ck.next_iter,
     ck.gamma, ck.overflow, ck.best_hpwl, ck.hpwl);
  fields(ar, ck.optimizer);
  fields(ar, ck.scheduler);
  fields(ar, ck.engine);
}

}  // namespace

void write_checkpoint(const core::RunCheckpoint& ck, const std::string& path) {
  util::ByteWriter w;
  w(kMagic, core::RunCheckpoint::kVersion);
  fields(w, const_cast<core::RunCheckpoint&>(ck));  // the writer only reads
  w(util::fnv1a64(w.str().data(), w.str().size()));
  const std::string payload = w.take();

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write '" + tmp + "'");
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out) throw std::runtime_error("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

core::RunCheckpoint read_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint '" + path + "'");
  const std::string buf((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const auto fail = [&path](const std::string& msg) {
    throw std::runtime_error(path + ": " + msg);
  };

  util::ByteReader r(buf);
  std::uint32_t magic = 0, version = 0;
  r(magic, version);
  if (!r.ok()) fail("truncated checkpoint");
  if (magic != kMagic) fail("not an Xplace checkpoint (bad magic)");
  if (version != core::RunCheckpoint::kVersion) {
    fail("unsupported checkpoint version " + std::to_string(version) +
         " (this build reads version " +
         std::to_string(core::RunCheckpoint::kVersion) + ")");
  }
  core::RunCheckpoint ck;
  fields(r, ck);
  const std::size_t payload_end = r.pos();
  std::uint64_t stored_sum = 0;
  r(stored_sum);
  if (!r.ok()) fail("truncated checkpoint");
  if (stored_sum != util::fnv1a64(buf.data(), payload_end)) {
    fail("checkpoint checksum mismatch (corrupted file)");
  }
  return ck;
}

}  // namespace xplace::io
