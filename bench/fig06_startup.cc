// Figure 6: GPU pod start-up time vs container memory, with and without
// PVDMA, plus the §4 device-provisioning comparison (VF vs vStellar).
//
// Paper reference points: pinning a 1.6 TB container takes ~390 s; with
// PVDMA boot stays below ~20 s at every size, and the 160 GB -> 1.6 TB
// growth (~11 s) is general hypervisor overhead, not pinning.
#include <cstdio>

#include "bench/bench_util.h"
#include "bench/obs_util.h"
#include "rnic/device.h"
#include "virt/hypervisor.h"

using namespace stellar;
using namespace stellar::bench;

namespace {

Hypervisor::BootReport boot_once(bool pvdma, std::uint64_t mem) {
  HostPcieConfig pc;
  pc.main_memory_bytes = 4ull << 40;
  HostPcie pcie(pc);
  HypervisorConfig hc;
  hc.use_pvdma = pvdma;
  Hypervisor hyp(pcie, hc);
  RundContainer container(1, "pod", mem);
  return hyp.boot_container(container).value();
}

}  // namespace

int main(int argc, char** argv) {
  ObsScope obs_scope(argc, argv, "fig06");
  print_header(
      "Figure 6 - GPU pod startup time (s) vs container memory\n"
      "paper: w/o PVDMA grows to ~390s+ at 1.6TB; with PVDMA <20s flat");

  print_row({"memory", "w/o PVDMA", "with PVDMA", "speedup", "pin share"});
  const std::uint64_t sizes[] = {16_GiB, 64_GiB, 160_GiB, 640_GiB,
                                 1600ull * 1_GiB};
  for (std::uint64_t mem : sizes) {
    const auto base = boot_once(false, mem);
    const auto pvdma = boot_once(true, mem);
    print_row({format_bytes(mem), fmt(base.total.sec(), 1),
               fmt(pvdma.total.sec(), 1),
               fmt(base.total.sec() / pvdma.total.sec(), 1) + "x",
               fmt(100.0 * base.pin_time.sec() / base.total.sec(), 1) + "%"});
  }

  print_header(
      "Aux (Section 4) - virtual device provisioning: SR-IOV VF vs vStellar");
  print_row({"mode", "provision(s)", "per-device mem", "GDR LUT slot"});
  print_row({"SR-IOV VF",
             fmt((kVfResetTime + kVfCreateTime).sec(), 1),
             format_bytes(kVfMemoryOverhead), "1 per VF"});
  print_row({"vStellar", fmt(kSfCreateTime.sec(), 1),
             format_bytes(kPage4K) + " (doorbell)", "0 (shares PF)"});
  std::printf(
      "\nvStellar devices per RNIC: up to %u (doorbell-BAR bound), matching\n"
      "the paper's 64k virtual devices claim; device creation %0.1fs matches\n"
      "MasQ.\n",
      static_cast<unsigned>(kDoorbellBarBytes / kPage4K),
      kSfCreateTime.sec());
  return 0;
}
