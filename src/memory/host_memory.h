// Host physical memory (HPA) allocator with first-fit free-list semantics.
// The PCIe topology carves BAR windows out of the same HPA space, so the
// allocator supports both anonymous allocation and explicit reservation.
#pragma once

#include <cstdint>
#include <map>

#include "common/status.h"
#include "memory/address.h"

namespace stellar {

class HostMemory {
 public:
  /// [base, base+size) is the allocatable window.
  HostMemory(Hpa base, std::uint64_t size);

  /// First-fit allocation, aligned to `align` (power of two).
  StatusOr<Hpa> allocate(std::uint64_t len, std::uint64_t align = kPage4K);

  /// Release a previously allocated range starting at `addr`.
  Status release(Hpa addr);

  std::uint64_t total_bytes() const { return size_; }
  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t free_bytes() const { return size_ - used_; }

 private:
  Hpa base_;
  std::uint64_t size_;
  std::uint64_t used_ = 0;
  std::map<std::uint64_t, std::uint64_t> free_;       // start -> len
  std::map<std::uint64_t, std::uint64_t> allocated_;  // start -> len

  void insert_free(std::uint64_t start, std::uint64_t len);
};

}  // namespace stellar
