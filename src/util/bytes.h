// The one little-endian byte codec and FNV-1a hash behind every byte format
// (journal frames and payloads, XPCK checkpoints) and every content hash.
//
// A format is described once, as a field list: a function template
// `fields(Ar& ar, T& v)` that names the members in wire order. ByteWriter
// appends them and ByteReader reads them back into the same members, so the
// writer and the reader cannot drift apart. Both archives take:
//
//   ar(a, b, ...)       each member as its own bytes: arithmetic types at
//                       their width, bool as u8, enums as their underlying
//                       type, std::string as u32 length + bytes
//   ar.count(v, min)    a u32 element count: the writer emits v.size(); the
//                       reader checks that many elements of at least `min`
//                       bytes fit in what is left, then resizes v
//   ar.floats(v)        u64 count + raw f32 array
//   ar.opt(o)           u8 presence flag; returns the value to walk or null
//
// ByteReader never reads past its buffer and never sizes an allocation from
// an unchecked length: a read of n bytes checks `n > size - pos` (no sum can
// wrap), counts are checked by division against the bytes left (no product
// can wrap), and the first failed read turns `ok()` false for good, so a
// decoder walks its whole list and checks once.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace xplace::util {

static_assert(std::endian::native == std::endian::little,
              "byte formats are stored in host order, which must be LE");
static_assert(sizeof(long) == 8 && sizeof(std::size_t) == 8,
              "field lists store long and size_t members as 8 bytes");

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// FNV-1a 64-bit over `n` bytes, continuing from state `h` so a stream can
/// be hashed in pieces.
inline std::uint64_t fnv1a64(const void* data, std::size_t n,
                             std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

class ByteWriter {
 public:
  static constexpr bool kReads = false;

  template <typename... T>
  void operator()(const T&... v) {
    (put(v), ...);
  }
  template <typename Vec>
  std::size_t count(const Vec& v, std::size_t /*min_bytes*/) {
    put(static_cast<std::uint32_t>(v.size()));
    return v.size();
  }
  void floats(const std::vector<float>& v) {
    put(static_cast<std::uint64_t>(v.size()));
    out_.append(reinterpret_cast<const char*>(v.data()),
                v.size() * sizeof(float));
  }
  template <typename T>
  const T* opt(const std::optional<T>& o) {
    put(o.has_value());
    return o ? &*o : nullptr;
  }

  /// Appends bytes with no length prefix.
  void append(std::string_view bytes) { out_.append(bytes); }
  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      put(static_cast<std::uint32_t>(v.size()));
      out_.append(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      put(static_cast<std::uint8_t>(v ? 1 : 0));
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else {
      static_assert(std::is_arithmetic_v<T>, "no byte encoding for this type");
      char buf[sizeof(T)];
      std::memcpy(buf, &v, sizeof(T));
      out_.append(buf, sizeof(T));
    }
  }

  std::string out_;
};

class ByteReader {
 public:
  static constexpr bool kReads = true;

  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  /// False once any read ran past the end; later reads change nothing.
  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  template <typename... T>
  void operator()(T&... v) {
    (get(v), ...);
  }
  template <typename Vec>
  std::size_t count(Vec& v, std::size_t min_bytes) {
    std::uint32_t n = 0;
    get(n);
    if (!fits(n, min_bytes)) return 0;
    v.resize(n);
    return n;
  }
  void floats(std::vector<float>& v) {
    std::uint64_t n = 0;
    get(n);
    if (!fits(n, sizeof(float))) return;
    v.resize(static_cast<std::size_t>(n));
    if (n > 0) {
      std::memcpy(v.data(), take(n * sizeof(float)), n * sizeof(float));
    }
  }
  template <typename T>
  T* opt(std::optional<T>& o) {
    bool present = false;
    get(present);
    if (!present) {
      o.reset();
      return nullptr;
    }
    return &o.emplace();
  }

  /// The next `n` bytes, or nullptr (and !ok) when fewer are left.
  const char* take(std::size_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return nullptr;
    }
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

 private:
  /// Whether `n` elements of at least `elem_bytes` each fit in the bytes
  /// left; clears ok() when they do not.
  bool fits(std::uint64_t n, std::size_t elem_bytes) {
    if (ok_ && n > remaining() / elem_bytes) ok_ = false;
    return ok_;
  }

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      std::uint32_t n = 0;
      get(n);
      if (const char* p = take(n)) v.assign(p, n);
    } else if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t b = 0;
      get(b);
      if (ok_) v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      get(u);
      if (ok_) v = static_cast<T>(u);
    } else {
      static_assert(std::is_arithmetic_v<T>, "no byte encoding for this type");
      if (const char* p = take(sizeof(T))) std::memcpy(&v, p, sizeof(T));
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace xplace::util
