#include "memory/host_memory.h"

namespace stellar {

HostMemory::HostMemory(Hpa base, std::uint64_t size)
    : base_(base), size_(size) {
  free_.emplace(base.value(), size);
}

StatusOr<Hpa> HostMemory::allocate(std::uint64_t len, std::uint64_t align) {
  if (len == 0) return invalid_argument("HostMemory::allocate: zero length");
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const std::uint64_t start = it->first;
    const std::uint64_t flen = it->second;
    const std::uint64_t aligned = (start + align - 1) & ~(align - 1);
    const std::uint64_t pad = aligned - start;
    if (flen < pad + len) continue;
    // Carve [aligned, aligned+len) out of this free block.
    free_.erase(it);
    if (pad > 0) free_.emplace(start, pad);
    if (flen > pad + len) free_.emplace(aligned + len, flen - pad - len);
    allocated_.emplace(aligned, len);
    used_ += len;
    return Hpa{aligned};
  }
  return resource_exhausted("HostMemory::allocate: out of physical memory");
}

Status HostMemory::release(Hpa addr) {
  auto it = allocated_.find(addr.value());
  if (it == allocated_.end()) {
    return not_found("HostMemory::release: not an allocation start");
  }
  const std::uint64_t start = it->first;
  const std::uint64_t len = it->second;
  allocated_.erase(it);
  used_ -= len;
  insert_free(start, len);
  return Status::ok();
}

void HostMemory::insert_free(std::uint64_t start, std::uint64_t len) {
  // Coalesce with neighbours.
  auto next = free_.upper_bound(start);
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == start) {
      start = prev->first;
      len += prev->second;
      free_.erase(prev);
    }
  }
  if (next != free_.end() && start + len == next->first) {
    len += next->second;
    free_.erase(next);
  }
  free_.emplace(start, len);
}

}  // namespace stellar
