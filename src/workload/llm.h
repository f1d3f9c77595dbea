// Analytic LLM training-job model: 3D/expert parallelism communication
// volumes, compute time, and the iteration-time composition used for
// Table 1 and Figures 15/16.
//
// Formulas follow the standard Megatron-LM / DeepSpeed accounting:
//  * compute: ~6 * params * tokens FLOPs per iteration, split over GPUs;
//  * TP: 4 all-reduces of (mb x seq x hidden) activations per layer per
//    microbatch (2 forward + 2 backward), ring cost 2(t-1)/t each;
//  * PP: one activation tensor each way per microbatch per stage boundary;
//  * DP: one gradient all-reduce of the local shard per iteration, ring
//    cost 2(d-1)/d — amortized over all `grad_accum` microbatches, which
//    is why GPT-200B (ga=117) shows 1.49% DP time while Llama-33B (ga=58,
//    dp=148) shows 21% (Table 1);
//  * EP: two all-to-alls per MoE layer per microbatch.
#pragma once

#include <cstdint>
#include <string>

namespace stellar {

struct ModelSpec {
  std::string name;
  double params_billion = 0;
  std::uint32_t layers = 0;
  std::uint32_t hidden = 0;
  std::uint32_t seq_len = 2048;
  std::uint32_t moe_layers = 0;  // layers with expert parallelism
  double bytes_per_element = 2.0;  // bf16
};

struct ParallelConfig {
  std::uint32_t tp = 1;
  std::uint32_t pp = 1;
  std::uint32_t dp = 1;
  std::uint32_t ep = 1;
  std::uint32_t micro_batch = 1;
  std::uint32_t grad_accum = 1;
  std::uint32_t global_batch = 1;

  std::uint32_t gpus() const { return tp * pp * dp; }
};

/// Per-GPU communication volumes for one training iteration, in bytes.
struct CommVolumes {
  double tp_bytes = 0;
  double dp_bytes = 0;
  double pp_bytes = 0;
  double ep_bytes = 0;
  double total() const { return tp_bytes + dp_bytes + pp_bytes + ep_bytes; }
};

struct TrainJob {
  ModelSpec model;
  ParallelConfig parallel;
  /// Sustained per-GPU throughput (achieved, not peak) in TFLOP/s.
  double gpu_tflops = 150.0;
  /// Fraction of communication hidden behind computation (§9 discussion:
  /// overlap is real but never complete).
  double overlap = 0.55;
  /// DP traffic knobs for framework-specific behaviour:
  ///  * volume multiplier — ZeRO-3 runs three ring collectives per step
  ///    (2x param all-gather + grad reduce-scatter) vs the plain gradient
  ///    all-reduce's two phases: multiplier 1.5;
  ///  * exposed fraction — DeepSpeed prefetch overlaps most ZeRO-3 gather
  ///    traffic with compute, so only a small share hits the critical path.
  double dp_volume_multiplier = 1.0;
  double dp_exposed_fraction = 1.0;
};

CommVolumes comm_volumes(const TrainJob& job);

/// Pure-compute time of one iteration, seconds.
double compute_seconds(const TrainJob& job);

/// Communication time of one iteration assuming `bw_gbps` effective
/// per-GPU network bandwidth for each traffic class, seconds (no overlap).
/// With `include_pp_bubble`, PP time also counts the pipeline bubble
/// ((pp-1)/(ga+pp-1) of compute) — measured "PP communication" shares in
/// production (Table 1) include that stall time, which dwarfs the wire
/// bytes for deep pipelines.
struct CommSeconds {
  double tp = 0, dp = 0, pp = 0, ep = 0;
  double total() const { return tp + dp + pp + ep; }
};
CommSeconds comm_seconds(const TrainJob& job, double tp_bw_gbps,
                         double dp_bw_gbps, double pp_bw_gbps,
                         double ep_bw_gbps, bool include_pp_bubble = false);

/// Table-1 style communication ratios: share of the (non-overlapped)
/// iteration time spent in each traffic class.
struct CommRatios {
  double tp = 0, dp = 0, pp = 0, ep = 0;
};
CommRatios comm_ratios(const TrainJob& job, double bw_gbps);

/// End-to-end iteration time with partial overlap: compute + residual comm,
/// with a distinct bandwidth for DP traffic (the class that crosses
/// segments in the Figure-16 placements).
double iteration_seconds_split(const TrainJob& job, double intra_bw_gbps,
                               double cross_bw_gbps);

}  // namespace stellar
