// Observability wiring for the figure benches: an RAII scope that installs
// an ObsHub for the duration of a run and, when --trace is passed, dumps
// the sim-time trace + a metrics snapshot on exit.
//
// Flags (parsed from argv; unknown flags are ignored so each bench keeps
// its own positional arguments):
//   --trace[=path]     dump Chrome trace-event JSON (default: trace.json)
//                      plus BENCH_<name>_obs.json with the metrics snapshot
//   --trace-sample=N   keep 1 of every N trace events per category (N >= 1;
//                      anything else exits 2); metrics are always
//                      collected in full
//
// With -DSTELLAR_TRACE=OFF the probes are compiled out of the libraries;
// passing --trace then warns and produces empty output rather than lying.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "obs/obs.h"
#include "sim/hybrid.h"

namespace stellar::bench {

/// Emit every fluid/packet mode span of a HybridDriver into the tracer's
/// kSim category, so traces show the fast-forwarded windows and
/// tools/trace_summarize can report the % of sim time spent in fluid mode.
/// The sim layer itself stays obs-free; this is the bench-side bridge.
inline void attach_fluid_spans(HybridDriver& driver) {
  driver.set_span_hook([](RegionMode mode, SimTime begin, SimTime end) {
    (void)mode;
    (void)begin;
    (void)end;
    STELLAR_TRACE_ONLY(obs::complete(
        obs::TraceCat::kSim,
        mode == RegionMode::kFluid ? "fluid_epoch" : "packet_epoch", begin,
        end - begin);)
  });
}

/// Positional scale argument (argv[1]-style) that ignores --flags, so
/// `fig09 0.1 --trace` and `fig09 --trace 0.1` both work.
inline double scale_arg(int argc, char** argv, double def = 1.0) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) continue;
    const double v = std::atof(argv[i]);
    if (v > 0.0) return v;
  }
  return def;
}

class ObsScope {
 public:
  ObsScope(int argc, char** argv, std::string bench)
      : bench_(std::move(bench)) {
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--trace") == 0) {
        enabled_ = true;
      } else if (std::strncmp(a, "--trace=", 8) == 0) {
        enabled_ = true;
        path_ = a + 8;
      } else if (std::strncmp(a, "--trace-sample=", 15) == 0) {
        sample_ = positive_flag_value("--trace-sample=", a + 15);
      }
    }
    if (!enabled_) return;
    if (!STELLAR_TRACE_ENABLED) {
      std::fprintf(stderr,
                   "warning: --trace requested but this binary was built "
                   "with -DSTELLAR_TRACE=OFF; no events will be recorded\n");
    }
    hub_ = new obs::ObsHub();
    if (sample_ > 1) {
      for (int c = 0; c < obs::kTraceCats; ++c) {
        hub_->tracer().set_sample_period(static_cast<obs::TraceCat>(c),
                                         sample_);
      }
    }
    prev_ = obs::install_hub(hub_);
  }

  ~ObsScope() {
    if (hub_ == nullptr) return;
    obs::install_hub(prev_);
    if (!hub_->tracer().write_json(path_)) {
      std::fprintf(stderr, "warning: cannot write %s\n", path_.c_str());
    } else {
      std::printf("[obs] wrote %s (%zu events, %llu sampled out)\n",
                  path_.c_str(), hub_->tracer().event_count(),
                  static_cast<unsigned long long>(
                      hub_->tracer().dropped_by_sampling()));
    }
    const std::string mpath = "BENCH_" + bench_ + "_obs.json";
    std::FILE* f = std::fopen(mpath.c_str(), "wb");
    if (f != nullptr) {
      const std::string body = hub_->metrics().to_json();
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      std::printf("[obs] wrote %s (%zu series)\n", mpath.c_str(),
                  hub_->metrics().size());
    }
    delete hub_;
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  bool enabled() const { return hub_ != nullptr; }

  /// Give clockless layers (PVDMA/ATC/MTT/GDR) trace timestamps from this
  /// simulator. Benches that build several sequential Simulators call this
  /// per run; pass nullptr when the simulator dies.
  void set_clock(const Simulator* sim) {
    if (hub_ != nullptr) hub_->set_clock(sim);
  }

  obs::ObsHub* hub() { return hub_; }

 private:
  std::string bench_;
  std::string path_ = "trace.json";
  std::uint32_t sample_ = 1;
  bool enabled_ = false;
  obs::ObsHub* hub_ = nullptr;
  obs::ObsHub* prev_ = nullptr;
};

}  // namespace stellar::bench
