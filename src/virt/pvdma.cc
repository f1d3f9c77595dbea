#include "virt/pvdma.h"

#include "common/log.h"
#include "obs/obs.h"

namespace stellar {

namespace {
// The MMIO window of pcie/host_pcie.cc: any HPA at or above this belongs to
// a device BAR, not DRAM. Used to classify stale-mapping destinations.
constexpr std::uint64_t kBarWindowBase = 1ull << 46;

constexpr SimTime kMapCacheLookup = SimTime::nanos(80);

// Visit the IOMMU ranges a registration of [start, start+len) programs:
// the EPT runs, each merged into the previous one when it continues it in
// both GPA and HPA; a gap or an HPA break starts a new range. Unmapped
// guest pages are skipped (they fault if the device ever touches them). A
// vDB register hole is its own EPT range pointing into a BAR, so it stays
// its own IOMMU range. fn(gpa, hpa, len) returns false to stop.
template <typename Fn>
void for_each_iommu_range(const Ept& ept, Gpa start, std::uint64_t len,
                          Fn&& fn) {
  Gpa run_gpa;
  Hpa run_hpa;
  std::uint64_t run_len = 0;
  bool more = true;
  ept.for_each_run(start, len, [&](Gpa gpa, Hpa hpa, std::uint64_t n) {
    if (run_len > 0 && run_gpa + run_len == gpa && run_hpa + run_len == hpa) {
      run_len += n;
      return true;
    }
    if (run_len > 0 && !(more = fn(run_gpa, run_hpa, run_len))) return false;
    run_gpa = gpa;
    run_hpa = hpa;
    run_len = n;
    return true;
  });
  if (more && run_len > 0) fn(run_gpa, run_hpa, run_len);
}
}  // namespace

StatusOr<Pvdma::MapResult> Pvdma::prepare_dma(Gpa gpa, std::uint64_t len) {
  if (len == 0) return invalid_argument("Pvdma::prepare_dma: zero length");
  if (pressured_) {
    ++pressured_rejections_;
    STELLAR_TRACE_ONLY(obs::count("pvdma/pressured_rejections");)
    return resource_exhausted(
        "Pvdma::prepare_dma: pin resources exhausted (injected pressure)");
  }
  MapResult out;
  out.cache_hit = true;

  const std::uint64_t bs = config_.block_size;
  const Gpa first = gpa.align_down(bs);
  const Gpa last = (gpa + (len - 1)).align_down(bs);
  for (Gpa block = first; block <= last; block = block + bs) {
    out.cost += kMapCacheLookup;
    if (cache_.lookup(block)) {
      cache_.add_user(block);
      STELLAR_TRACE_ONLY(obs::count("pvdma/map_cache_hits");)
      continue;
    }
    STELLAR_TRACE_ONLY(obs::count("pvdma/map_cache_misses");)
    out.cache_hit = false;
    Status s = pin_block(block);
    if (!s.is_ok()) {
      // All or nothing: the caller records no MR for a failed call, so it
      // never releases the earlier blocks — give back their users and pins
      // here, newest first.
      for (Gpa b = block; b > first;) {
        b = b - bs;
        drop_user(b);
      }
      return s;
    }
    out.cost += iommu_->pin_cost(bs);
    out.pinned_bytes += bs;
  }
  STELLAR_TRACE_ONLY(
      obs::count("pvdma/prepares");
      obs::record_time("pvdma/prepare_cost_ps", out.cost);
      obs::complete_here(
          obs::TraceCat::kPvdma, "prepare_dma", out.cost,
          obs::TraceArgs{"bytes", static_cast<std::int64_t>(len), "hit",
                         out.cache_hit ? 1 : 0, "pinned",
                         static_cast<std::int64_t>(out.pinned_bytes)});)
  return out;
}

void Pvdma::release_dma(Gpa gpa, std::uint64_t len) {
  if (len == 0) return;
  const std::uint64_t bs = config_.block_size;
  const Gpa first = gpa.align_down(bs);
  const Gpa last = (gpa + (len - 1)).align_down(bs);
  for (Gpa block = first; block <= last; block = block + bs) {
    if (!cache_.contains(block)) {
      // Releasing a block that was never prepared (or already fully
      // released) is a pin-lifecycle bug in the caller — the double-unpin
      // class the invariant auditor flags.
      ++double_unpins_;
      STELLAR_TRACE_ONLY(obs::count("pvdma/double_unpins");)
      LOG_WARN("Pvdma::release_dma: block GPA 0x%llx was never mapped "
               "(double unpin?)",
               static_cast<unsigned long long>(block.value()));
      continue;
    }
    drop_user(block);
  }
}

Status Pvdma::pin_block(Gpa block) {
  const std::uint64_t bs = config_.block_size;
  if (pin_budget_bytes_ != 0 && pinned_bytes_ + bs > pin_budget_bytes_) {
    ++budget_rejections_;
    STELLAR_TRACE_ONLY(obs::count("pvdma/budget_rejections");)
    return failed_precondition(
        "Pvdma::prepare_dma: tenant pin budget exceeded");
  }
  if (!iommu_->pin_capacity_available(bs)) {
    ++capacity_rejections_;
    STELLAR_TRACE_ONLY(obs::count("pvdma/capacity_rejections");)
    return resource_exhausted(
        "Pvdma::prepare_dma: host pin capacity exhausted");
  }
  Status s = register_block(block);
  if (!s.is_ok()) return s;
  cache_.insert(block);
  ++blocks_registered_;
  iommu_->note_pinned(bs, tenant_);
  pinned_bytes_ += bs;
  STELLAR_TRACE_ONLY(obs::count("pvdma/blocks_pinned");
                     obs::gauge_add("pvdma/pinned_bytes",
                                    static_cast<std::int64_t>(bs));)
  return Status::ok();
}

void Pvdma::drop_user(Gpa block) {
  // Other users keep the block alive — including any stale device-register
  // sub-mappings it may contain (Figure 5d).
  if (!cache_.release_user(block)) return;
  const std::uint64_t bs = config_.block_size;
  unregister_block(block);
  cache_.erase(block);
  iommu_->note_unpinned(bs, tenant_);
  pinned_bytes_ -= bs < pinned_bytes_ ? bs : pinned_bytes_;
  STELLAR_TRACE_ONLY(obs::count("pvdma/blocks_unpinned");
                     obs::gauge_add("pvdma/pinned_bytes",
                                    -static_cast<std::int64_t>(bs));)
}

std::uint64_t Pvdma::release_all() {
  const std::uint64_t bs = config_.block_size;
  std::vector<Gpa> blocks;
  blocks.reserve(cache_.block_count());
  cache_.for_each_block(
      [&blocks](Gpa start, std::uint32_t) { blocks.push_back(start); });
  std::uint64_t released = 0;
  for (Gpa block : blocks) {
    unregister_block(block);
    cache_.erase(block);
    iommu_->note_unpinned(bs, tenant_);
    pinned_bytes_ -= bs < pinned_bytes_ ? bs : pinned_bytes_;
    released += bs;
  }
  STELLAR_TRACE_ONLY(if (released > 0) {
    obs::gauge_add("pvdma/pinned_bytes", -static_cast<std::int64_t>(released));
  })
  return released;
}

Status Pvdma::register_block(Gpa block_start) {
  Status status;
  std::size_t mapped = 0;
  for_each_iommu_range(*ept_, block_start, config_.block_size,
                       [&](Gpa gpa, Hpa hpa, std::uint64_t len) {
                         status = iommu_->map(IoVa{iova_base_ + gpa.value()},
                                              hpa, len);
                         mapped += status.is_ok() ? 1 : 0;
                         return status.is_ok();
                       });
  if (status.is_ok()) return status;
  // A half-registered block is not resident. The EPT has not changed, so
  // the same walk's first `mapped` ranges are exactly what this call mapped.
  for_each_iommu_range(*ept_, block_start, config_.block_size,
                       [&](Gpa gpa, Hpa, std::uint64_t) {
                         if (mapped == 0) return false;
                         --mapped;
                         (void)iommu_->unmap(IoVa{iova_base_ + gpa.value()});
                         return true;
                       });
  return status;
}

void Pvdma::unregister_block(Gpa block_start) {
  const std::size_t removed =
      iommu_->unmap_range(IoVa{iova_base_ + block_start.value()},
                          config_.block_size);
  if (removed == 0) {
    // The block was resident in the Map Cache yet carried no IOMMU ranges:
    // someone already tore the window down behind our back.
    ++double_unpins_;
    LOG_WARN("Pvdma::unregister_block: IOMMU window for block GPA 0x%llx "
             "was already empty (double unpin?)",
             static_cast<unsigned long long>(block_start.value()));
  }
}

Pvdma::DeviceAccess Pvdma::translate_for_device(Gpa gpa) {
  DeviceAccess out;
  auto tr = iommu_->translate(IoVa{iova_base_ + gpa.value()}, tenant_);
  if (!tr.is_ok()) {
    out.kind = AccessKind::kFault;
    return out;
  }
  out.hpa = tr.value().hpa;

  // Cross-check against the EPT's *current* view. A divergence means the
  // IOMMU holds a stale mapping — the Figure-5 bug. In the production
  // incident the stale target was the RNIC doorbell register.
  auto current = ept_->translate(gpa);
  const bool stale = !current.is_ok() || current.value() != out.hpa;
  if (stale) {
    ++stale_accesses_;
    out.kind = AccessKind::kStaleDeviceMapping;
    (void)kBarWindowBase;  // classification detail: stale targets are
                           // usually BAR space, but any divergence is fatal
    return out;
  }
  out.kind = AccessKind::kRam;
  return out;
}

}  // namespace stellar
