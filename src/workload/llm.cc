#include "workload/llm.h"

#include <algorithm>

namespace stellar {

namespace {
constexpr double kBytesPerGrad = 2.0;  // bf16 gradients
}

CommVolumes comm_volumes(const TrainJob& job) {
  const ModelSpec& m = job.model;
  const ParallelConfig& p = job.parallel;
  CommVolumes out;

  const double act_bytes = static_cast<double>(p.micro_batch) *
                           static_cast<double>(m.seq_len) *
                           static_cast<double>(m.hidden) *
                           m.bytes_per_element;
  const double layers_per_stage =
      static_cast<double>(m.layers) / static_cast<double>(p.pp);
  const double microbatches = static_cast<double>(p.grad_accum);

  // Tensor parallelism: 2 all-reduces forward + 2 backward per transformer
  // layer; each ring all-reduce moves 2(t-1)/t of the tensor per GPU.
  if (p.tp > 1) {
    const double ring = 2.0 * (p.tp - 1) / static_cast<double>(p.tp);
    out.tp_bytes = 4.0 * ring * act_bytes * layers_per_stage * microbatches;
  }

  // Pipeline parallelism: activation fwd + gradient bwd per microbatch per
  // stage boundary (a non-edge stage both sends and receives; we charge
  // the per-GPU send volume).
  if (p.pp > 1) {
    out.pp_bytes = 2.0 * act_bytes * microbatches / p.tp;
  }

  // Data parallelism: one gradient ring all-reduce of the local parameter
  // shard per iteration. On a rail-optimized fabric, NCCL splits the ring
  // across a host's 8 rails when a host's GPUs share one DP group (pure or
  // near-pure DP jobs), dividing per-NIC wire bytes accordingly.
  if (p.dp > 1) {
    const double shard_params =
        m.params_billion * 1e9 / (static_cast<double>(p.tp) * p.pp);
    const double ring = 2.0 * (p.dp - 1) / static_cast<double>(p.dp);
    const double rail_share =
        8.0 / std::min(8.0, static_cast<double>(p.tp) * p.pp);
    out.dp_bytes = ring * shard_params * kBytesPerGrad / rail_share *
                   job.dp_volume_multiplier * job.dp_exposed_fraction;
  }

  // Expert parallelism: dispatch + combine all-to-all per MoE layer per
  // microbatch; each GPU exchanges (ep-1)/ep of its tokens, twice per
  // direction (forward and backward).
  if (p.ep > 1 && m.moe_layers > 0) {
    const double a2a = static_cast<double>(p.ep - 1) / p.ep;
    const double moe_per_stage =
        static_cast<double>(m.moe_layers) / static_cast<double>(p.pp);
    out.ep_bytes = 4.0 * a2a * act_bytes * moe_per_stage * microbatches;
  }
  return out;
}

double compute_seconds(const TrainJob& job) {
  const ModelSpec& m = job.model;
  const ParallelConfig& p = job.parallel;
  const double tokens = static_cast<double>(p.global_batch) * m.seq_len;
  // 6 FLOPs per parameter per token (fwd 2 + bwd 4), standard accounting.
  const double flops = 6.0 * m.params_billion * 1e9 * tokens;
  const double per_gpu = flops / static_cast<double>(p.gpus());
  return per_gpu / (job.gpu_tflops * 1e12);
}

CommSeconds comm_seconds(const TrainJob& job, double tp_bw_gbps,
                         double dp_bw_gbps, double pp_bw_gbps,
                         double ep_bw_gbps, bool include_pp_bubble) {
  const CommVolumes v = comm_volumes(job);
  CommSeconds out;
  auto secs = [](double bytes, double gbps) {
    return gbps > 0 ? bytes * 8.0 / (gbps * 1e9) : 0.0;
  };
  // TP traffic rides NVLink-class intra-host fabric; the paper's Table 1
  // still counts it as communication time.
  out.tp = secs(v.tp_bytes, tp_bw_gbps);
  out.dp = secs(v.dp_bytes, dp_bw_gbps);
  out.pp = secs(v.pp_bytes, pp_bw_gbps);
  out.ep = secs(v.ep_bytes, ep_bw_gbps);
  if (include_pp_bubble && job.parallel.pp > 1) {
    const double bubble =
        static_cast<double>(job.parallel.pp - 1) /
        static_cast<double>(job.parallel.grad_accum + job.parallel.pp - 1);
    out.pp += bubble * compute_seconds(job);
  }
  return out;
}

CommRatios comm_ratios(const TrainJob& job, double bw_gbps) {
  // Table 1's ratios: TP over NVLink-class bandwidth, DP/PP/EP over the
  // scale-out network; PP includes the pipeline bubble, as a production
  // profiler would attribute it.
  const double kNvlinkGbps = 2400.0;  // ~300 GB/s effective all-reduce bw
  const CommSeconds c = comm_seconds(job, kNvlinkGbps, bw_gbps, bw_gbps,
                                     bw_gbps, /*include_pp_bubble=*/true);
  const double total = compute_seconds(job) + c.total();
  CommRatios out;
  if (total <= 0) return out;
  out.tp = c.tp / total;
  out.dp = c.dp / total;
  out.pp = c.pp / total;
  out.ep = c.ep / total;
  return out;
}

double iteration_seconds_split(const TrainJob& job, double intra_bw_gbps,
                               double cross_bw_gbps) {
  const double kNvlinkGbps = 2400.0;
  // DP gradient all-reduce is the class whose ring spans segments in the
  // Figure-16 placements; TP stays on NVLink, PP/EP inside a segment.
  const CommSeconds c = comm_seconds(job, kNvlinkGbps, cross_bw_gbps,
                                     intra_bw_gbps, intra_bw_gbps);
  const double residual = (1.0 - job.overlap) * c.total();
  return compute_seconds(job) + residual;
}

}  // namespace stellar
