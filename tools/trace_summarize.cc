// trace_summarize: turn a Chrome trace-event JSON produced by the obs
// tracer into per-layer latency/throughput rollups.
//
//   trace_summarize trace.json [--json out.json]
//
// Output: one row per (track, event name) with event count and, for "X"
// spans, total/mean/min/max duration (sim picoseconds); "C" counter tracks
// report sample count and the last value. With --json the same rollup is
// also written as machine-readable JSON.
//
// The parser handles exactly the tracer's own output format — one event
// object per line, integer fields — which keeps it dependency-free. It
// exits nonzero on a file that yields no events (wrong file, truncated
// write), so CI smoke runs fail loudly.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace {

struct Rollup {
  char phase = '?';
  std::uint64_t count = 0;
  std::int64_t dur_total = 0;
  std::int64_t dur_min = 0;
  std::int64_t dur_max = 0;
  std::int64_t last_value = 0;
  std::int64_t first_ts = 0;
  std::int64_t last_ts = 0;
};

/// Extract the string value of `"key":"..."` from a JSON object line.
bool find_str(const std::string& line, const char* key, std::string& out) {
  const std::string pat = std::string("\"") + key + "\":\"";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  const std::size_t start = at + pat.size();
  const std::size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  out = line.substr(start, end - start);
  return true;
}

/// Extract the integer value of `"key":123` from a JSON object line.
bool find_int(const std::string& line, const char* key, std::int64_t& out) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string::npos) return false;
  out = std::strtoll(line.c_str() + at + pat.size(), nullptr, 10);
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const char* in_path = nullptr;
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) != 0) {
      in_path = argv[i];
    } else {
      std::fprintf(stderr, "usage: trace_summarize trace.json [--json out]\n");
      return 2;
    }
  }
  if (in_path == nullptr) {
    std::fprintf(stderr, "usage: trace_summarize trace.json [--json out]\n");
    return 2;
  }

  std::FILE* f = std::fopen(in_path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_summarize: cannot open %s\n", in_path);
    return 1;
  }

  // tid -> track name (from the "M" thread_name metadata records).
  std::map<std::int64_t, std::string> tracks;
  // (track name, event name) -> rollup.
  std::map<std::pair<std::string, std::string>, Rollup> rollups;
  std::int64_t ts_lo = 0, ts_hi = 0;
  bool any_ts = false;

  std::string line;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    line.assign(buf);
    std::string ph;
    if (!find_str(line, "ph", ph) || ph.empty()) continue;
    std::int64_t tid = 0;
    find_int(line, "tid", tid);
    std::string name;
    if (ph == "M") {
      // {"ph":"M",...,"args":{"name":"transport"}} — the args name is the
      // second "name" key; find_str grabs the first ("thread_name"), so
      // search past it.
      const std::size_t args = line.find("\"args\"");
      if (args != std::string::npos) {
        std::string tname;
        if (find_str(line.substr(args), "name", tname)) tracks[tid] = tname;
      }
      continue;
    }
    if (!find_str(line, "name", name)) continue;
    std::int64_t ts = 0;
    find_int(line, "ts", ts);
    if (!any_ts || ts < ts_lo) ts_lo = ts;
    if (!any_ts || ts > ts_hi) ts_hi = ts;
    any_ts = true;

    const std::string track =
        tracks.count(tid) != 0 ? tracks[tid] : std::to_string(tid);
    Rollup& r = rollups[{track, name}];
    r.phase = ph[0];
    if (r.count == 0) r.first_ts = ts;
    r.last_ts = ts;
    ++r.count;
    if (ph == "X") {
      std::int64_t dur = 0;
      find_int(line, "dur", dur);
      r.dur_total += dur;
      if (r.count == 1 || dur < r.dur_min) r.dur_min = dur;
      if (dur > r.dur_max) r.dur_max = dur;
      if (ts + dur > ts_hi) ts_hi = ts + dur;  // spans extend the sim window
    } else if (ph == "C") {
      std::int64_t v = 0;
      find_int(line, "value", v);
      r.last_value = v;
    }
  }
  std::fclose(f);

  if (rollups.empty()) {
    std::fprintf(stderr, "trace_summarize: no trace events found in %s\n",
                 in_path);
    return 1;
  }

  const double span_us = any_ts ? static_cast<double>(ts_hi - ts_lo) / 1e6
                                : 0.0;
  std::printf("trace: %s  (%.3f us of sim time, %zu series)\n", in_path,
              span_us, rollups.size());
  std::printf("%-12s %-28s %2s %10s %14s %14s %14s %14s\n", "track", "event",
              "ph", "count", "total_ps", "mean_ps", "min_ps", "max_ps");
  for (const auto& [key, r] : rollups) {
    if (r.phase == 'X') {
      std::printf("%-12s %-28s %2c %10llu %14lld %14lld %14lld %14lld\n",
                  key.first.c_str(), key.second.c_str(), r.phase,
                  static_cast<unsigned long long>(r.count),
                  static_cast<long long>(r.dur_total),
                  static_cast<long long>(r.dur_total /
                                         static_cast<std::int64_t>(r.count)),
                  static_cast<long long>(r.dur_min),
                  static_cast<long long>(r.dur_max));
    } else if (r.phase == 'C') {
      std::printf("%-12s %-28s %2c %10llu %14s last=%-14lld\n",
                  key.first.c_str(), key.second.c_str(), r.phase,
                  static_cast<unsigned long long>(r.count), "-",
                  static_cast<long long>(r.last_value));
    } else {
      // Instants: count plus rate over the event's own active window.
      const double window_s =
          static_cast<double>(r.last_ts - r.first_ts) / 1e12;
      const double rate = window_s > 0.0
                              ? static_cast<double>(r.count) / window_s
                              : 0.0;
      std::printf("%-12s %-28s %2c %10llu %14s rate=%.0f/s\n",
                  key.first.c_str(), key.second.c_str(), r.phase,
                  static_cast<unsigned long long>(r.count), "-", rate);
    }
  }

  // Hybrid fidelity rollup: "fluid_epoch" / "packet_epoch" spans are the
  // HybridDriver's mode windows, summed over every driver the trace holds
  // (one per fabric) — so the totals are fabric-time ("region-time" in the
  // printed line), and the percentage is fluid's share of it (each fabric
  // contributes its whole lifetime to exactly one of the two buckets at
  // any instant).
  std::int64_t fluid_ps = 0;
  std::int64_t packet_ps = 0;
  std::uint64_t fluid_epochs = 0;
  for (const auto& [key, r] : rollups) {
    if (key.second == "fluid_epoch") {
      fluid_ps += r.dur_total;
      fluid_epochs += r.count;
    } else if (key.second == "packet_epoch") {
      packet_ps += r.dur_total;
    }
  }
  double fluid_pct = 0.0;
  if (fluid_epochs > 0 || packet_ps > 0) {
    const std::int64_t mode_ps = fluid_ps + packet_ps;
    fluid_pct = mode_ps > 0 ? 100.0 * static_cast<double>(fluid_ps) /
                                  static_cast<double>(mode_ps)
                            : 0.0;
    std::printf(
        "[fluid] %llu fluid epochs, %lld ps region-time fast-forwarded "
        "(%.1f%% of %lld ps region-time; sim span %lld ps)\n",
        static_cast<unsigned long long>(fluid_epochs),
        static_cast<long long>(fluid_ps), fluid_pct,
        static_cast<long long>(mode_ps),
        static_cast<long long>(ts_hi - ts_lo));
  }

  if (json_path != nullptr) {
    std::FILE* out = std::fopen(json_path, "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "trace_summarize: cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(out, "{\n  \"trace\": \"%s\",\n  \"series\": [",
                 json_escape(in_path).c_str());
    bool first = true;
    for (const auto& [key, r] : rollups) {
      std::fprintf(
          out,
          "%s\n    {\"track\": \"%s\", \"event\": \"%s\", \"ph\": \"%c\", "
          "\"count\": %llu, \"dur_total_ps\": %lld, \"dur_min_ps\": %lld, "
          "\"dur_max_ps\": %lld, \"last_value\": %lld}",
          first ? "" : ",", json_escape(key.first).c_str(),
          json_escape(key.second).c_str(), r.phase,
          static_cast<unsigned long long>(r.count),
          static_cast<long long>(r.dur_total),
          static_cast<long long>(r.dur_min),
          static_cast<long long>(r.dur_max),
          static_cast<long long>(r.last_value));
      first = false;
    }
    std::fprintf(out, "\n  ],\n  \"fluid_epochs\": %llu, \"fluid_ps\": %lld, "
                      "\"fluid_pct\": %.2f\n}\n",
                 static_cast<unsigned long long>(fluid_epochs),
                 static_cast<long long>(fluid_ps), fluid_pct);
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
