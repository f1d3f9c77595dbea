// PCIe Bus/Device/Function identifiers and BAR windows.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

#include "memory/address.h"

namespace stellar {

/// Bus-Device-Function triple: the PCIe identity of a (virtual) device.
/// A central point of the paper: SR-IOV VFs each burn one BDF (and a PCIe
/// switch LUT slot), while Stellar SF/vStellar devices all share their
/// parent's BDF.
class Bdf {
 public:
  constexpr Bdf() = default;
  constexpr Bdf(std::uint8_t bus, std::uint8_t device, std::uint8_t function)
      : packed_((static_cast<std::uint16_t>(bus) << 8) |
                (static_cast<std::uint16_t>(device & 0x1F) << 3) |
                (function & 0x7)) {}

  constexpr std::uint8_t bus() const {
    return static_cast<std::uint8_t>(packed_ >> 8);
  }
  constexpr std::uint8_t device() const {
    return static_cast<std::uint8_t>((packed_ >> 3) & 0x1F);
  }
  constexpr std::uint8_t function() const {
    return static_cast<std::uint8_t>(packed_ & 0x7);
  }
  constexpr std::uint16_t packed() const { return packed_; }

  constexpr auto operator<=>(const Bdf&) const = default;

 private:
  std::uint16_t packed_ = 0;
};

/// A Base Address Register window: a range of HPA space owned by a device.
struct Bar {
  Hpa base;
  std::uint64_t len = 0;

  bool contains(Hpa addr) const {
    return addr >= base && addr.value() < base.value() + len;
  }
};

}  // namespace stellar

namespace std {
template <>
struct hash<stellar::Bdf> {
  size_t operator()(const stellar::Bdf& b) const noexcept {
    return std::hash<std::uint16_t>{}(b.packed());
  }
};
}  // namespace std
