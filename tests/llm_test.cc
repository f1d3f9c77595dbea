#include <gtest/gtest.h>

#include "workload/models.h"

namespace stellar {
namespace {

TEST(LlmModelTest, CommVolumesZeroWhenDimensionIsOne) {
  TrainJob job = table1_llama2b_zero1();  // pure DP
  const CommVolumes v = comm_volumes(job);
  EXPECT_EQ(v.tp_bytes, 0.0);
  EXPECT_EQ(v.pp_bytes, 0.0);
  EXPECT_EQ(v.ep_bytes, 0.0);
  EXPECT_GT(v.dp_bytes, 0.0);
}

TEST(LlmModelTest, DpVolumeScalesWithShard) {
  TrainJob job = table1_llama33b();
  const CommVolumes v = comm_volumes(job);
  // Ring all-reduce of the (params / tp*pp) shard: 2(d-1)/d * shard * 2B,
  // divided by the rail share 8/min(8, tp*pp) = 8/6.
  const double shard = 32.5e9 / (2 * 3);
  const double expect = 2.0 * 147.0 / 148.0 * shard * 2.0 / (8.0 / 6.0);
  EXPECT_NEAR(v.dp_bytes, expect, expect * 1e-9);
}

TEST(LlmModelTest, Zero3KnobsScaleDpVolume) {
  TrainJob base = table1_llama13b_zero3();
  TrainJob plain = base;
  plain.dp_volume_multiplier = 1.0;
  plain.dp_exposed_fraction = 1.0;
  EXPECT_NEAR(comm_volumes(base).dp_bytes,
              comm_volumes(plain).dp_bytes * 1.5 * 0.15, 1.0);
}

TEST(LlmModelTest, TpVolumeGrowsWithGradAccum) {
  TrainJob a = table1_llama33b();
  TrainJob b = a;
  b.parallel.grad_accum *= 2;
  EXPECT_NEAR(comm_volumes(b).tp_bytes, 2 * comm_volumes(a).tp_bytes, 1.0);
  // DP volume is independent of grad accumulation (one all-reduce/iter).
  EXPECT_NEAR(comm_volumes(b).dp_bytes, comm_volumes(a).dp_bytes, 1.0);
}

TEST(LlmModelTest, ComputeTimeAccounting) {
  TrainJob job = table1_llama2b_zero1();
  // 6 * 2e9 * (32*2048) tokens / 16 GPUs / 150 TFLOPs.
  const double expect = 6.0 * 2e9 * (32.0 * 2048) / 16.0 / 150e12;
  EXPECT_NEAR(compute_seconds(job), expect, expect * 1e-9);
}

TEST(LlmModelTest, Table1RatiosQualitativeShape) {
  // Effective cross-segment all-reduce bandwidth per GPU: ~40 Gbps is what
  // large production rings achieve (the per-GPU NIC is 400G but rings
  // span segments and share the aggregation layer).
  const double bw = 40.0;
  // Llama-33B: DP dominates (paper: 20.95% DP vs 4.57% TP vs 2.65% PP).
  {
    const CommRatios r = comm_ratios(table1_llama33b(), bw);
    EXPECT_GT(r.dp, r.tp);
    EXPECT_GT(r.dp, r.pp);
    EXPECT_GT(r.dp, 0.08);
  }
  // GPT-200B: PP dominates (bubble + activations), DP is small because
  // grad-accum 117 amortizes the single gradient all-reduce
  // (paper: 20.14% PP vs 1.49% DP).
  {
    const CommRatios r = comm_ratios(table1_gpt200b(), bw);
    EXPECT_GT(r.pp, r.dp);
    EXPECT_GT(r.pp, r.tp);
    EXPECT_LT(r.dp, 0.10);
  }
  // DeepSpeed jobs: only DP is nonzero and it is substantial.
  {
    const CommRatios r = comm_ratios(table1_llama2b_zero1(), bw);
    EXPECT_EQ(r.tp, 0.0);
    EXPECT_EQ(r.pp, 0.0);
    EXPECT_GT(r.dp, 0.08);
  }
}

TEST(LlmModelTest, IterationTimeMonotoneInBandwidth) {
  TrainJob job = table1_llama33b();
  const double slow = iteration_seconds_split(job, 100.0, 100.0);
  const double fast = iteration_seconds_split(job, 800.0, 800.0);
  EXPECT_LT(fast, slow);
  // At infinite bandwidth, only compute remains.
  EXPECT_NEAR(iteration_seconds_split(job, 1e12, 1e12), compute_seconds(job),
              compute_seconds(job) * 0.01);
}

TEST(LlmModelTest, OverlapReducesIterationTime) {
  TrainJob job = table1_llama33b();
  TrainJob no_overlap = job;
  no_overlap.overlap = 0.0;
  TrainJob full_overlap = job;
  full_overlap.overlap = 1.0;
  EXPECT_LT(iteration_seconds_split(full_overlap, 400.0, 400.0),
            iteration_seconds_split(job, 400.0, 400.0));
  EXPECT_LT(iteration_seconds_split(job, 400.0, 400.0),
            iteration_seconds_split(no_overlap, 400.0, 400.0));
  EXPECT_NEAR(iteration_seconds_split(full_overlap, 400.0, 400.0),
              compute_seconds(job), 1e-12);
}

TEST(LlmModelTest, SplitBandwidthOnlyDpUsesCrossLink) {
  TrainJob job = table1_llama2b_zero1();  // pure DP
  const double base = iteration_seconds_split(job, 400.0, 400.0);
  const double congested = iteration_seconds_split(job, 400.0, 100.0);
  EXPECT_GT(congested, base);
  // For a pure-DP job, intra bandwidth is irrelevant.
  EXPECT_NEAR(iteration_seconds_split(job, 50.0, 400.0), base, 1e-12);
}

TEST(LlmModelTest, EpVolumePresentOnlyForMoe) {
  const auto jobs = figure16_jobs();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(comm_volumes(jobs[0]).ep_bytes, 0.0);
  EXPECT_GT(comm_volumes(jobs[3]).ep_bytes, 0.0);  // the MoE config
  for (const auto& job : jobs) {
    EXPECT_EQ(job.parallel.gpus() * (job.parallel.ep >= 1 ? 1 : 1), 1024u);
  }
}

TEST(LlmModelTest, EpVolumeFormula) {
  TrainJob job = figure16_jobs()[3];  // the MoE config: ep=8, moe layers 28
  const CommVolumes v = comm_volumes(job);
  const ModelSpec& m = job.model;
  const ParallelConfig& p = job.parallel;
  const double act = static_cast<double>(p.micro_batch) * m.seq_len *
                     m.hidden * m.bytes_per_element;
  const double expected = 4.0 * (p.ep - 1.0) / p.ep *
                          (static_cast<double>(m.moe_layers) / p.pp) * act *
                          p.grad_accum;
  EXPECT_NEAR(v.ep_bytes, expected, expected * 1e-9);
}

TEST(LlmModelTest, PipelineBubbleAccounting) {
  TrainJob job = table1_gpt200b();  // pp=12, ga=117
  const CommSeconds with_bubble =
      comm_seconds(job, 2400, 40, 40, 40, /*include_pp_bubble=*/true);
  const CommSeconds wire_only =
      comm_seconds(job, 2400, 40, 40, 40, /*include_pp_bubble=*/false);
  const double bubble = with_bubble.pp - wire_only.pp;
  const double expected =
      11.0 / (117.0 + 11.0) * compute_seconds(job);  // (pp-1)/(ga+pp-1)
  EXPECT_NEAR(bubble, expected, expected * 1e-9);
  // No pipeline => no bubble.
  TrainJob flat = table1_llama2b_zero1();
  const CommSeconds f =
      comm_seconds(flat, 2400, 40, 40, 40, /*include_pp_bubble=*/true);
  EXPECT_EQ(f.pp, 0.0);
}

TEST(LlmModelTest, DeeperPipelinesHaveBiggerBubbles) {
  TrainJob job = table1_gpt200b();
  TrainJob deeper = job;
  deeper.parallel.pp *= 2;
  deeper.parallel.dp /= 2;  // keep the GPU count fixed
  const double r1 = comm_ratios(job, 40.0).pp;
  const double r2 = comm_ratios(deeper, 40.0).pp;
  EXPECT_GT(r2, r1);
}

TEST(LlmModelTest, Table1JobsMatchPaperParameters) {
  const auto jobs = table1_jobs();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].parallel.tp, 2u);
  EXPECT_EQ(jobs[0].parallel.pp, 3u);
  EXPECT_EQ(jobs[0].parallel.dp, 148u);
  EXPECT_EQ(jobs[0].parallel.grad_accum, 58u);
  EXPECT_EQ(jobs[0].parallel.global_batch, 8584u);
  EXPECT_EQ(jobs[1].parallel.grad_accum, 117u);
  EXPECT_EQ(jobs[2].parallel.dp, 16u);
  EXPECT_EQ(jobs[3].parallel.dp, 440u);
}

}  // namespace
}  // namespace stellar
