// Deterministic byte-stable snapshot encoding for control-plane state.
//
// The vStellar robustness story (backend hot-upgrade, VM live migration)
// rests on serializing guest-visible state into bytes that are *identical*
// across runs and across a serialize -> restore -> serialize round trip.
// The encoding is therefore deliberately primitive: fixed-width
// little-endian integers, length-prefixed strings, and tagged sections —
// no pointers, no varints, no platform-dependent layout. The archives walk
// unordered containers in sorted key order.
//
// Doubles are encoded by bit pattern (IEEE-754 via memcpy), so a restored
// value is bit-exact and the round trip stays byte-identical.
//
// Each snapshotted struct names its fields once, in a field list that
// serves both directions (the cereal / boost.serialization idiom):
//
//   template <class Ar, class Self>
//   static void fields(Ar& ar, Self& self) {
//     ar(self.next_psn_, as<std::uint8_t>(self.algo), self.blocks_);
//   }
//
// `SnapshotWriter` and `SnapshotReader` are its two archives; `Self` is
// const when saving. A field encoded narrower than its C++ type names its
// wire type with as<>(). Containers travel as a u32 count plus their
// elements. Validation and rebuilt state stay in hand-written hooks around
// the list, or in an `if constexpr (Ar::kLoading)` block inside it.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/ordered.h"
#include "common/status.h"
#include "common/units.h"

namespace stellar {

/// Four-character section tags make snapshot corruption diagnosable: a
/// reader that desyncs fails at the next section boundary with the tag it
/// expected, instead of silently reading garbage integers.
constexpr std::uint32_t snapshot_tag(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// A field whose wire type is narrower than its C++ type, e.g. an
/// int-backed enum written as one byte. A Bandwidth travels as its i64
/// bit rate.
template <class Wire, class T>
struct As {
  using wire_type = Wire;
  T& v;
};
template <class Wire, class T>
As<Wire, T> as(T& v) {
  return {v};
}

namespace snapshot_detail {
template <class C>
concept Keyed = requires { typename C::mapped_type; };
/// What a container holds, as the reader builds it before inserting.
template <class C>
auto element() {
  if constexpr (Keyed<C>) {
    return std::pair<typename C::key_type, typename C::mapped_type>{};
  } else {
    return typename C::value_type{};
  }
}
}  // namespace snapshot_detail

/// The dispatch both archives share: a struct with a field list, a
/// polymorphic object with save()/restore() (a CC context), a pair, a
/// container (a u32 count, then its elements), or a scalar the archive
/// encodes itself.
template <class Ar>
class Archive {
 public:
  /// Encodes (or decodes into) each value in turn.
  template <class... Ts>
  void operator()(Ts&&... vs) {
    (field(vs), ...);
  }

 protected:
  template <class T>
  void field(T& v) {
    using U = std::remove_const_t<T>;
    Ar& ar = static_cast<Ar&>(*this);
    if constexpr (requires { U::fields(ar, v); }) {
      U::fields(ar, v);
    } else if constexpr (requires { v.save(ar); }) {
      v.save(ar);
    } else if constexpr (requires { v.restore(ar); }) {
      v.restore(ar);
    } else if constexpr (requires { v.first; v.second; }) {
      field(v.first);
      field(v.second);
    } else if constexpr (requires { v.size(); } &&
                         !std::is_same_v<U, std::string>) {
      ar.seq(v, [this](auto& item) { field(item); });
    } else {
      ar.scalar(v);
    }
  }
};

class SnapshotWriter : public Archive<SnapshotWriter> {
 public:
  static constexpr bool kLoading = false;

  /// A u32 count, then `each(element)` per element; a hash container is
  /// walked in ascending key order.
  template <class C, class Each>
  void seq(const C& items, Each&& each) {
    scalar(static_cast<std::uint32_t>(items.size()));
    if constexpr (requires { typename C::hasher; }) {
      for (const auto& key : sorted_keys(items)) each(*items.find(key));
    } else if constexpr (requires { items.begin(); }) {
      for (const auto& item : items) each(item);
    } else {
      for (std::size_t i = 0; i < items.size(); ++i) each(items[i]);
    }
  }

  void section(std::uint32_t tag) { scalar(tag); }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  friend class Archive<SnapshotWriter>;

  template <class T>
  void scalar(const T& v) {
    if constexpr (requires { v.v.bps(); }) {
      scalar(static_cast<typename T::wire_type>(v.v.bps()));
    } else if constexpr (requires { typename T::wire_type; }) {
      scalar(static_cast<typename T::wire_type>(v.v));
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      // Byte-order note: the simulation only targets little-endian hosts
      // (the whole repo assumes it); the native representation is the
      // deterministic encoding on every supported platform. A bool is one
      // 0/1 byte, an enum its underlying integer.
      buf_.append(reinterpret_cast<const char*>(&v), sizeof(v));
    } else if constexpr (std::is_same_v<T, SimTime>) {
      scalar(v.ps());
    } else if constexpr (std::is_same_v<T, std::string>) {
      scalar(static_cast<std::uint32_t>(v.size()));
      buf_.append(v);
    } else {
      scalar(v.value());  // a strong-typed address
    }
  }

  std::string buf_;
};

class SnapshotReader : public Archive<SnapshotReader> {
 public:
  static constexpr bool kLoading = true;

  explicit SnapshotReader(std::string_view bytes) : bytes_(bytes) {}

  /// Reads a u32 count and refills `items` with that many elements, each
  /// decoded by `each`. Every element takes at least one byte, so a count
  /// above the bytes left fails the reader with kOutOfRange before the loop
  /// starts. An element cut short by the end of the bytes is dropped.
  template <class C, class Each>
  void seq(C& items, Each&& each) {
    const auto n = read<std::uint32_t>();
    if (!ok()) return;
    if (n > remaining()) {
      return fail(out_of_range("snapshot: count " + std::to_string(n) +
                               " exceeds the " + std::to_string(remaining()) +
                               " bytes left"));
    }
    items.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      auto e = snapshot_detail::element<C>();
      each(e);
      if (!ok()) return;
      if constexpr (!snapshot_detail::Keyed<C>) {
        items.push_back(std::move(e));
      } else if constexpr (requires { items.emplace(e.first, e.second); }) {
        items.emplace(std::move(e.first), std::move(e.second));
      } else {
        items.insert(e.first, std::move(e.second));
      }
    }
  }

  /// Consume a section marker, failing loudly on a tag mismatch (the
  /// reader is desynchronized or the snapshot is from a different layout).
  void section(std::uint32_t tag) {
    const auto got = read<std::uint32_t>();
    if (ok() && got != tag) {
      fail(invalid_argument("snapshot: section tag mismatch (got " +
                            std::to_string(got) + ", want " +
                            std::to_string(tag) + ")"));
    }
  }

  /// Fail the read with `s` (the first failure wins). Every later read
  /// comes back zero.
  void fail(Status s) {
    if (ok()) status_ = std::move(s);
    pos_ = bytes_.size();
  }

  /// False once any read ran past the end or a check failed.
  bool ok() const { return status_.is_ok(); }
  const Status& status() const { return status_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

  Status finish() const {
    if (!ok()) return status_;
    if (remaining() != 0) {
      return invalid_argument("snapshot: trailing bytes (" +
                              std::to_string(remaining()) + ")");
    }
    return Status::ok();
  }

 private:
  friend class Archive<SnapshotReader>;

  template <class T>
  T read() {
    T v{};
    scalar(v);
    return v;
  }

  template <class T>
  void scalar(T& v) {
    if constexpr (requires { v.v.bps(); }) {
      v.v = Bandwidth::bits_per_sec(read<typename T::wire_type>());
    } else if constexpr (requires { typename T::wire_type; }) {
      v.v = static_cast<std::remove_reference_t<decltype(v.v)>>(
          read<typename T::wire_type>());
    } else if constexpr (std::is_same_v<T, bool>) {
      v = read<std::uint8_t>() != 0;
    } else if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
      if (sizeof(v) > remaining()) {
        v = T{};  // an overrun reads as zero, never garbage
        return fail(out_of_range("snapshot: truncated"));
      }
      std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
      pos_ += sizeof(v);
    } else if constexpr (std::is_same_v<T, SimTime>) {
      v = SimTime::picos(read<std::int64_t>());
    } else if constexpr (std::is_same_v<T, std::string>) {
      const auto n = read<std::uint32_t>();
      if (n > remaining()) return fail(out_of_range("snapshot: truncated"));
      v.assign(bytes_.substr(pos_, n));
      pos_ += n;
    } else {
      v = T{read<std::uint64_t>()};  // a strong-typed address
    }
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  Status status_;
};

/// FNV-1a 64-bit digest, rendered as fixed-width hex: the byte-stability
/// fingerprint benches embed in their JSON output.
inline std::string snapshot_digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[h & 0xF];
    h >>= 4;
  }
  return out;
}

}  // namespace stellar
