// RunD secure container model: a MicroVM with its own guest-physical
// address space. Only what the experiments need: memory size, a guest
// allocator (so tests can recreate the adjacent-allocation layout behind
// the Figure-5 bug), and identity bookkeeping.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "memory/address.h"
#include "rnic/verbs.h"

namespace stellar {

class RundContainer {
 public:
  RundContainer(VmId id, std::string name, std::uint64_t memory_bytes)
      : id_(id), name_(std::move(name)), memory_bytes_(memory_bytes) {}

  VmId id() const { return id_; }
  const std::string& name() const { return name_; }
  std::uint64_t memory_bytes() const { return memory_bytes_; }

  /// Bump allocator over guest-physical RAM. Deliberately simple: guests
  /// allocating adjacent structures is exactly what triggers the PVDMA
  /// conflict, so tests want deterministic adjacency.
  StatusOr<Gpa> alloc(std::uint64_t len, std::uint64_t align = kPage4K) {
    const std::uint64_t aligned = (next_ + align - 1) & ~(align - 1);
    if (aligned + len > memory_bytes_) {
      return resource_exhausted("RundContainer: guest memory exhausted");
    }
    next_ = aligned + len;
    return Gpa{aligned};
  }

  /// Allocator cursor, exposed so live migration can carry the guest's
  /// memory layout onto the destination container.
  std::uint64_t alloc_cursor() const { return next_; }
  void set_alloc_cursor(std::uint64_t v) { next_ = v; }

  bool booted() const { return booted_; }
  void set_booted(bool value) { booted_ = value; }

 private:
  VmId id_;
  std::string name_;
  std::uint64_t memory_bytes_;
  std::uint64_t next_ = kPage2M;  // skip guest page zero region
  bool booted_ = false;
};

}  // namespace stellar
