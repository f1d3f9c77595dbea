#include "check/auditors.h"

#include <algorithm>
#include <string>

#include "common/ordered.h"

#include "memory/address.h"

namespace stellar {

namespace {

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// (a) Packet conservation: injected = delivered + dropped + in-flight.
// ---------------------------------------------------------------------------

void FabricConservationAuditor::audit(AuditReport& report) const {
#if STELLAR_AUDIT_ENABLED
  std::uint64_t link_drops = 0;
  std::uint64_t held = 0;
  std::uint64_t absorbed = 0;
  for (const NetLink* link : fabric_->all_links()) {
    link_drops += link->audit_ingress_drops() + link->audit_sink_drops();
    held += link->held_packets();
    // Packets handed to the fluid model by a hybrid mode switch: not lost
    // (the transport rewinds their bytes into fluid demand), but no longer
    // owned by any link — they close the ledger as their own terminal
    // outcome.
    absorbed += link->audit_absorbed();
    // Per-link sanity: a link can never have released, dropped, or
    // absorbed more packets than it accepted (held_packets() underflows
    // otherwise).
    report.note_check();
    if (link->audit_released() + link->audit_sink_drops() +
            link->audit_absorbed() >
        link->audit_accepted()) {
      report.fail(name(), "link " + link->name() +
                              " released more packets than it accepted");
    }
  }
  const std::uint64_t injected = fabric_->injected_packets();
  const std::uint64_t accounted = fabric_->delivered_packets() +
                                  fabric_->dropped_no_handler() + link_drops +
                                  absorbed + held;
  report.note_check();
  if (injected != accounted) {
    report.fail(name(),
                "packet conservation violated: injected=" +
                    std::to_string(injected) + " but delivered=" +
                    std::to_string(fabric_->delivered_packets()) +
                    " + no-handler=" +
                    std::to_string(fabric_->dropped_no_handler()) +
                    " + link-drops=" + std::to_string(link_drops) +
                    " + fluid-absorbed=" + std::to_string(absorbed) +
                    " + in-flight=" + std::to_string(held) + " = " +
                    std::to_string(accounted));
  }
#else
  (void)report;
#endif
}

// ---------------------------------------------------------------------------
// (b) IOMMU pins vs PVDMA Map Cache residency (§5 pin lifecycle).
// ---------------------------------------------------------------------------

void PinAccountingAuditor::audit(AuditReport& report) const {
  const MapCache& cache = pvdma_->map_cache();
  const std::uint64_t block_size = cache.block_size();

  // PVDMA's pinned-byte counter is exactly the resident block set.
  report.note_check();
  const std::uint64_t resident_bytes = cache.block_count() * block_size;
  if (pvdma_->pinned_bytes() != resident_bytes) {
    report.fail(name(), "PVDMA pinned_bytes=" +
                            std::to_string(pvdma_->pinned_bytes()) +
                            " but Map Cache holds " +
                            std::to_string(cache.block_count()) +
                            " blocks = " + std::to_string(resident_bytes) +
                            " bytes");
  }

  // The IOMMU-side pin counter agrees when PVDMA is the only pinner.
  if (exclusive_iommu_) {
    report.note_check();
    if (iommu_->pinned_bytes() != pvdma_->pinned_bytes()) {
      report.fail(name(), "IOMMU pinned_bytes=" +
                              std::to_string(iommu_->pinned_bytes()) +
                              " != PVDMA pinned_bytes=" +
                              std::to_string(pvdma_->pinned_bytes()));
    }
  }

  // Every resident block: alive (users >= 1) and its EPT-mapped pages still
  // covered by the IOMMU (an unpin must not race a live registration).
  cache.for_each_block([&](Gpa block, std::uint32_t users) {
    report.note_check();
    if (users == 0) {
      report.fail(name(), "Map Cache block " + hex(block.value()) +
                              " resident with zero users");
    }
    // EPT-unmapped pages were never registered, so only the runs count.
    ept_->for_each_run(block, block_size, [&](Gpa gpa, Hpa, std::uint64_t len) {
      report.note_check();
      if (iommu_->covers(IoVa{pvdma_->iova_base() + gpa.value()}, len)) {
        return true;
      }
      report.fail(name(), "pinned block " + hex(block.value()) +
                              " lost IOMMU coverage in the EPT run at GPA " +
                              hex(gpa.value()));
      return false;  // one finding per block is enough
    });
  });

  // Conversely, no IOMMU range may outlive its block: anything mapped
  // outside the resident set is a stale entry left behind by an unpin.
  // Only checkable when this PVDMA owns the IOMMU — on a shared IOMMU the
  // other guests' live mappings are indistinguishable from stale ones.
  if (exclusive_iommu_) {
    for (const auto& [start, entry] : iommu_->table()) {
      report.note_check();
      // IOMMU windows live at iova_base + GPA (per-VM namespacing).
      const Gpa first{start - pvdma_->iova_base()};
      const Gpa last{start - pvdma_->iova_base() + entry.len - 1};
      if (!cache.contains(first) || !cache.contains(last)) {
        report.fail(name(), "stale IOMMU mapping [" + hex(start) + ", " +
                                hex(start + entry.len) +
                                ") outside any resident Map Cache block");
      }
    }
  }

  // Double-unpins are logged when they happen; surface them here too.
  report.note_check();
  if (pvdma_->double_unpins() != 0) {
    report.fail(name(), std::to_string(pvdma_->double_unpins()) +
                            " double-unpin(s) observed (see log)");
  }
}

// ---------------------------------------------------------------------------
// (c) eMTT coherence (§6): entries never point at unpinned or swapped HPAs.
// ---------------------------------------------------------------------------

void EmttCoherenceAuditor::audit(AuditReport& report) const {
  for (const auto& device : host_->devices_) {
    const Rnic& rnic = *device->rnic_;
    Hypervisor& hyp = host_->hypervisor();
    const Ept& ept = hyp.ept(device->vm_);
    const MapCache& cache = hyp.pvdma(device->vm_).map_cache();
    const std::uint64_t block_size = cache.block_size();

    // mr_records_ is a hash map; findings must emit in a deterministic
    // order, so walk the MR keys sorted. Only host-DRAM MRs are pinned.
    for (const MrKey key : device->memory_keys()) {
      const auto& rec = device->mr_records_.at(key);
      if (rec.owner != MemoryOwner::kHostDram) continue;
      const Gpa gpa{rec.guest_addr};
      const std::uint64_t len = rec.len;
      auto mr = rnic.verbs().mr(key);
      report.note_check();
      if (!mr.is_ok()) {
        report.fail(name(), "pinned range for MR key " + std::to_string(key) +
                                " has no verbs MR");
        continue;
      }
      const Gva base = mr.value()->base;

      // Probe each PVDMA-block stride of the MR plus its last byte: the
      // eMTT's stored final HPA must match the EPT's *current* translation
      // (a mismatch means the host swapped/remapped the page under a live
      // registration), and the backing block must still be resident.
      for (std::uint64_t probe = 0, done = 0; !done;
           done = (probe == len - 1),
                        probe = std::min(probe + block_size, len - 1)) {
        report.note_check();
        if (!cache.contains(gpa + probe)) {
          report.fail(name(), "eMTT entry for MR " + std::to_string(key) +
                                  " points into unpinned GPA " +
                                  hex((gpa + probe).value()));
          break;
        }
        auto entry = rnic.mtt().lookup(key, base + probe);
        report.note_check();
        if (!entry.is_ok() || !entry.value().translated) {
          report.fail(name(), "MR " + std::to_string(key) +
                                  " lacks an eMTT translation at offset " +
                                  std::to_string(probe));
          break;
        }
        auto current = ept.translate(gpa + probe);
        report.note_check();
        if (!current.is_ok() ||
            current.value().value() != entry.value().target) {
          report.fail(
              name(),
              "eMTT entry for MR " + std::to_string(key) + " stores HPA " +
                  hex(entry.value().target) + " but EPT now maps GPA " +
                  hex((gpa + probe).value()) + " to " +
                  (current.is_ok() ? hex(current.value().value())
                                   : std::string("<unmapped>")) +
                  " (swapped under a live registration)");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// (d) Transport/QP state legality (§7 spray + RTO rules).
// ---------------------------------------------------------------------------

void TransportAuditor::audit(AuditReport& report) const {
  for (const auto& conn : engine_->connections_) {
    const std::string tag = "conn " + std::to_string(conn->id());

    // In-flight byte accounting matches the outstanding table exactly.
    std::uint64_t outstanding_bytes = 0;
    std::uint64_t max_psn = 0;
    SimTime oldest_send = SimTime::max();
    for (const auto& [psn, meta] : conn->outstanding_) {
      outstanding_bytes += meta.bytes;
      max_psn = std::max(max_psn, psn);
      oldest_send = std::min(oldest_send, meta.sent_at);
    }
    report.note_check();
    if (conn->inflight_bytes_ != outstanding_bytes) {
      report.fail(name(), tag + ": inflight_bytes=" +
                              std::to_string(conn->inflight_bytes_) +
                              " != sum(outstanding)=" +
                              std::to_string(outstanding_bytes));
    }

    // PSNs are allocated monotonically; nothing in flight may carry a PSN
    // the sender has not issued yet.
    report.note_check();
    if (!conn->outstanding_.empty() && max_psn >= conn->next_psn_) {
      report.fail(name(), tag + ": outstanding PSN " + std::to_string(max_psn) +
                              " >= next_psn " +
                              std::to_string(conn->next_psn_));
    }

    // Outstanding data never exceeds the hard window ceiling (admission
    // checks inflight < window before each packet, so the overshoot is at
    // most one MTU above the configured maximum).
    report.note_check();
    if (conn->inflight_bytes_ > kMaxWindow + kMtu) {
      report.fail(name(), tag + ": inflight_bytes=" +
                              std::to_string(conn->inflight_bytes_) +
                              " exceeds max_window+mtu=" +
                              std::to_string(kMaxWindow + kMtu));
    }

    // An errored QP holds no in-flight state; a healthy QP arms the RTO
    // timer exactly when unacked packets exist.
    report.note_check();
    if (conn->error_ && !conn->outstanding_.empty()) {
      report.fail(name(), tag + ": QP in error state but " +
                              std::to_string(conn->outstanding_.size()) +
                              " packets still outstanding");
    }
    report.note_check();
    if (!conn->error_ &&
        conn->rto_timer_.armed() != !conn->outstanding_.empty()) {
      report.fail(name(),
                  tag + (conn->rto_timer_.armed()
                             ? ": RTO timer armed with nothing outstanding"
                             : ": unacked packets but no RTO timer armed"));
    }
    // The lazy RTO may fire early (and move itself), never late: an armed
    // timer is due no later than the oldest unacked send + rto, or now.
    report.note_check();
    if (conn->rto_timer_.armed() && !conn->outstanding_.empty()) {
      const SimTime due =
          std::max(oldest_send + conn->config_.rto, engine_->sim_->now());
      if (conn->rto_deadline_ > due) {
        report.fail(name(), tag + ": RTO timer armed at " +
                                std::to_string(conn->rto_deadline_.ps()) +
                                " ps, after its deadline " +
                                std::to_string(due.ps()) + " ps");
      }
    }

    // The CC contexts' inflight counts (one shared, or one per path) sum to
    // the connection's total.
    std::uint64_t ctx_sum = 0;
    for (std::uint64_t v : conn->cc_inflight_) ctx_sum += v;
    report.note_check();
    if (ctx_sum != conn->inflight_bytes_) {
      report.fail(name(), tag + ": CC-context inflight sum " +
                              std::to_string(ctx_sum) + " != inflight_bytes " +
                              std::to_string(conn->inflight_bytes_));
    }
  }

  // Receiver-side PSN tracking: the floor is fully compacted (its own bit,
  // and every bit below it in its word, is clear — a stored bit there means
  // the floor stopped short of a received PSN, or a stale bit would alias a
  // PSN one bitmap span higher) and the recorded high-water mark is sane.
  // rx_ is a hash map; findings must emit in a deterministic order, so
  // walk the connection ids sorted.
  for (const std::uint64_t conn_id : sorted_keys(engine_->rx_)) {
    const auto& rx = engine_->rx_.at(conn_id);
    const std::string tag = "rx conn " + std::to_string(conn_id);
    const std::uint64_t floor = rx.psns.floor();
    report.note_check();
    if (!rx.psns.compacted()) {
      report.fail(name(), tag + ": PSN bitmap holds entries at or below "
                                "floor " + std::to_string(floor));
    }
    report.note_check();
    if (rx.any && rx.highest_psn + 1 < floor) {
      report.fail(name(), tag + ": highest_psn " +
                              std::to_string(rx.highest_psn) +
                              " inconsistent with floor " +
                              std::to_string(floor));
    }
  }
}

// ---------------------------------------------------------------------------
// (e) Simulator event-heap sanity.
// ---------------------------------------------------------------------------

void SimulatorAuditor::audit(AuditReport& report) const {
  const Simulator::HeapStats stats = sim_->heap_stats();
  report.note_check();
  if (stats.pending_ids != stats.live_events) {
    report.fail(name(), "live_events=" + std::to_string(stats.live_events) +
                            " != pending entry count " +
                            std::to_string(stats.pending_ids));
  }
  // `queued` is ground truth: the wheel's slots, the overflow heap and the
  // active bucket are walked, so a counter that drifts from the structures
  // (or an entry lost between them) shows up here.
  report.note_check();
  if (stats.queued != stats.pending_ids + stats.tombstones) {
    report.fail(name(), "scheduler holds " + std::to_string(stats.queued) +
                            " entries but pending=" +
                            std::to_string(stats.pending_ids) +
                            " + tombstones=" +
                            std::to_string(stats.tombstones) + " = " +
                            std::to_string(stats.pending_ids +
                                           stats.tombstones));
  }
  // Every pending entry is an armed timer's, and each armed timer has
  // exactly one; a tombstone is a disarmed timer's entry — a drifting
  // armed-timer count breaks this.
  report.note_check();
  if (stats.armed_timers != stats.pending_ids) {
    report.fail(name(), std::to_string(stats.armed_timers) +
                            " armed timers but pending = " +
                            std::to_string(stats.pending_ids));
  }
}

// ---------------------------------------------------------------------------
// (f) Per-tenant accounting sums to global usage.
// ---------------------------------------------------------------------------

void TenantIsolationAuditor::audit(AuditReport& report) const {
  const Iommu& iommu = host_->pcie().iommu();

  std::uint64_t pinned_sum = 0;
  for (const auto& [tenant, bytes] : iommu.pinned_by_tenant()) {
    pinned_sum += bytes;
  }
  report.note_check();
  if (pinned_sum != iommu.pinned_bytes()) {
    report.fail(name(), "IOMMU pinned bytes: per-tenant sum " +
                            std::to_string(pinned_sum) + " != global " +
                            std::to_string(iommu.pinned_bytes()));
  }

  const auto audit_cache = [&](const TranslationCache& cache,
                               const std::string& what) {
    std::size_t sum = 0;
    for (const auto& [tenant, n] : cache.occupancy_by_tenant()) sum += n;
    report.note_check();
    if (sum != cache.size()) {
      report.fail(name(), what + " occupancy: per-tenant sum " +
                              std::to_string(sum) + " != resident " +
                              std::to_string(cache.size()));
    }
  };
  audit_cache(iommu.iotlb(), "IOTLB");
  for (std::size_t i = 0; i < host_->atc_count(); ++i) {
    audit_cache(host_->atc(i).cache(), "ATC " + std::to_string(i));
  }

  for (std::size_t i = 0; i < host_->rnic_count(); ++i) {
    const Rnic& rnic = host_->rnic(i);
    const std::string where = " (rnic " + std::to_string(i) + ")";

    std::uint64_t mtt_sum = 0;
    for (const auto& [tenant, pages] : rnic.mtt().pages_by_tenant()) {
      mtt_sum += pages;
    }
    report.note_check();
    if (mtt_sum != rnic.mtt().used_pages()) {
      report.fail(name(), "MTT pages: per-tenant sum " +
                              std::to_string(mtt_sum) + " != used " +
                              std::to_string(rnic.mtt().used_pages()) + where);
    }

    std::size_t mr_sum = 0;
    for (const auto& [vm, n] : rnic.verbs().mr_count_by_vm()) mr_sum += n;
    report.note_check();
    if (mr_sum != rnic.verbs().mr_count()) {
      report.fail(name(), "verbs MRs: per-tenant sum " +
                              std::to_string(mr_sum) + " != total " +
                              std::to_string(rnic.verbs().mr_count()) + where);
    }

    std::size_t qp_sum = 0;
    for (const auto& [vm, n] : rnic.verbs().qp_count_by_vm()) qp_sum += n;
    report.note_check();
    if (qp_sum != rnic.verbs().qp_count()) {
      report.fail(name(), "verbs QPs: per-tenant sum " +
                              std::to_string(qp_sum) + " != total " +
                              std::to_string(rnic.verbs().qp_count()) + where);
    }
  }

  const VSwitch& vsw = host_->vswitch();
  std::size_t rule_sum = 0;
  for (const auto& [tenant, n] : vsw.rules_by_tenant()) rule_sum += n;
  report.note_check();
  if (rule_sum != vsw.rule_count()) {
    report.fail(name(), "vSwitch rules: per-tenant sum " +
                            std::to_string(rule_sum) + " != table size " +
                            std::to_string(vsw.rule_count()));
  }

  // PVDMA cross-check: with on-demand pinning, each booted VM pins under
  // its own tenant id, so the two ledgers must agree per tenant.
  if (host_->hypervisor().config().use_pvdma) {
    for (VmId vm : host_->hypervisor().booted_vms()) {
      const Pvdma& pvdma = host_->hypervisor().pvdma(vm);
      report.note_check();
      if (pvdma.pinned_bytes() != iommu.pinned_bytes(pvdma.tenant())) {
        report.fail(name(), "VM " + std::to_string(vm) + " PVDMA pins " +
                                std::to_string(pvdma.pinned_bytes()) +
                                " bytes but IOMMU attributes " +
                                std::to_string(iommu.pinned_bytes(
                                    pvdma.tenant())) +
                                " to tenant " +
                                std::to_string(pvdma.tenant()));
      }
    }
  }
}

}  // namespace stellar
