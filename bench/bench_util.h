// Shared helpers for the figure-reproduction benches: consistent table
// printing so bench output can be diffed against EXPERIMENTS.md, plus a
// minimal JSON result writer so tooling can consume runs without scraping
// the tables.
#pragma once

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/hybrid.h"
#include "sim/simulator.h"

namespace stellar::bench {

// -- Fidelity selection -------------------------------------------------------
//
// --fidelity={packet,hybrid} picks the simulation engine for benches that
// support the hybrid fidelity driver (fig09/fig12/fig15_16):
//   packet  per-packet reference engine (the default; byte-identical to
//           builds without the driver attached)
//   hybrid  fluid fast-forward of stable epochs with packet-level zoom over
//           the measured window (docs/HYBRID.md)
// Any other value is rejected: the accepted values go to stderr and the
// bench exits with status 2.

enum class Fidelity { kPacket, kHybrid };

inline const char* fidelity_name(Fidelity f) {
  return f == Fidelity::kHybrid ? "hybrid" : "packet";
}

inline Fidelity fidelity_arg(int argc, char** argv,
                             Fidelity def = Fidelity::kPacket) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--fidelity=", 11) == 0) {
      const char* v = argv[i] + 11;
      if (std::strcmp(v, "packet") == 0) return Fidelity::kPacket;
      if (std::strcmp(v, "hybrid") == 0) return Fidelity::kHybrid;
      std::fprintf(stderr,
                   "error: unknown --fidelity=%s (accepted: packet, hybrid)\n",
                   v);
      std::exit(2);
    }
  }
  return def;
}

/// Build the driver for the requested fidelity — nullptr for packet, so the
/// packet path stays exactly the no-driver build. Must be called before any
/// RdmaEngine is constructed on `fabric` and destroyed after all of them.
inline std::unique_ptr<HybridDriver> make_fidelity_driver(Simulator& sim,
                                                          ClosFabric& fabric,
                                                          Fidelity f) {
  if (f == Fidelity::kPacket) return nullptr;
  return std::make_unique<HybridDriver>(sim, fabric);
}

/// The value of a `--flag=N` argument (`flag` includes the `=`), which
/// must be a decimal integer from 1 to 2^32 - 1. Anything else is rejected
/// as an unknown --fidelity is: the accepted values go to stderr and the
/// bench exits with status 2.
inline std::uint32_t positive_flag_value(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || *end != '\0' || errno == ERANGE || n == 0 ||
      n > UINT32_MAX) {
    std::fprintf(stderr,
                 "error: bad %s%s (accepted: an integer from 1 to %u)\n",
                 flag, v, UINT32_MAX);
    std::exit(2);
  }
  return static_cast<std::uint32_t>(n);
}

/// --threads=N flag shared by every simulator-driving bench: the worker
/// count for run-level sharding (core/run_shard.h). 1 (the default) is the
/// single-threaded reference path; any N must produce byte-identical BENCH
/// JSON and traces (tools/ci_checks.sh diffs fig09-mini at 1 vs 4).
inline std::uint32_t threads_arg(int argc, char** argv,
                                 std::uint32_t def = 1) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      return positive_flag_value("--threads=", argv[i] + 10);
    }
  }
  return def;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

// -- Engine throughput reporting ----------------------------------------------
//
// Every simulator-driving bench ends with one "[engine]" line: total events
// executed across all its Simulator instances, wall-clock, and events/sec.
// The wall clock starts at the first engine_meter() call, so touch the
// meter at the top of main() before running anything; each run() helper
// adds its drained Simulator just before the instance goes out of scope.

class EngineMeter {
 public:
  EngineMeter() : start_(std::chrono::steady_clock::now()) {}

  /// Fold one finished Simulator's executed-event count into the total.
  /// Thread-safe: ShardedRunSet worker jobs call this concurrently.
  void add(const Simulator& sim) {
    events_.fetch_add(sim.executed_events(), std::memory_order_relaxed);
    runs_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The one aggregate "[engine]" line.
  void report() const {
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
    const std::uint64_t events = events_.load(std::memory_order_relaxed);
    std::printf(
        "\n[engine] %llu simulator runs, %llu events, %.2f s wall, "
        "%.2f M events/s aggregate\n",
        static_cast<unsigned long long>(
            runs_.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(events), wall,
        wall > 0.0 ? static_cast<double>(events) / wall / 1e6 : 0.0);
  }

 private:
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> runs_{0};
};

/// Process-wide meter: benches call this once at the top of main() (to start
/// the wall clock) and add() each Simulator when its run completes.
inline EngineMeter& engine_meter() {
  static EngineMeter meter;
  return meter;
}

// -- JSON result emission -----------------------------------------------------
//
// Each bench that wants machine-readable output collects flat rows of
// (key, value-fragment) pairs and writes one BENCH_<name>.json file next to
// its working directory. Values are raw JSON fragments: use jstr()/jnum()/
// jint() to build them, so quoting and formatting stay consistent.

inline std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

inline std::string jnum(double v, int decimals = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string jint(long long v) { return std::to_string(v); }

class JsonResult {
 public:
  using Row = std::vector<std::pair<std::string, std::string>>;

  explicit JsonResult(std::string bench) : bench_(std::move(bench)) {}

  void add_row(Row row) { rows_.push_back(std::move(row)); }

  std::string to_string() const {
    std::string out = "{\n  \"bench\": " + jstr(bench_) + ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += "    {";
      for (std::size_t k = 0; k < rows_[i].size(); ++k) {
        if (k > 0) out += ", ";
        out += jstr(rows_[i][k].first) + ": " + rows_[i][k].second;
      }
      out += "}";
    }
    out += rows_.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
  }

  /// Write BENCH_<name>.json (or an explicit path). Returns false and warns
  /// on stderr if the file cannot be written; the bench still succeeds.
  bool write(const std::string& path = "") const {
    const std::string target =
        path.empty() ? "BENCH_" + bench_ + ".json" : path;
    std::FILE* f = std::fopen(target.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", target.c_str());
      return false;
    }
    const std::string body = to_string();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("\n[json] wrote %s (%zu rows)\n", target.c_str(),
                rows_.size());
    return true;
  }

 private:
  std::string bench_;
  std::vector<Row> rows_;
};

}  // namespace stellar::bench
