#include "obs/metrics.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <utility>
#include <vector>

namespace stellar::obs {

std::uint64_t LogHistogram::value_at_rank(std::uint64_t r) const {
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen > r) return bucket_mid(i);
  }
  return max_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Mirror PercentileRecorder::percentile(): pos = q*(n-1), interpolate
  // between the floor and ceil ranks.
  const double pos = q * static_cast<double>(count_ - 1);
  const std::uint64_t lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  const double vlo = static_cast<double>(value_at_rank(lo));
  const double vhi = static_cast<double>(value_at_rank(hi));
  return vlo + (vhi - vlo) * frac;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    // try_emplace: Counter holds an atomic and is neither copyable nor
    // movable, so it must be constructed in place.
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

LogHistogram& MetricsRegistry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // Snapshot under the source lock, apply through the public accessors
  // (which take our own lock per series): the two registries' mutexes are
  // never held together.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, LogHistogram>> histograms;
  {
    MutexLock lock(other.mu_);
    counters.reserve(other.counters_.size());
    for (const auto& [name, c] : other.counters_) {
      counters.emplace_back(name, c.value());
    }
    gauges.reserve(other.gauges_.size());
    for (const auto& [name, g] : other.gauges_) {
      gauges.emplace_back(name, g.value());
    }
    histograms.reserve(other.histograms_.size());
    for (const auto& [name, h] : other.histograms_) {
      histograms.emplace_back(name, h);
    }
  }
  for (const auto& [name, v] : counters) counter(name).add(v);
  for (const auto& [name, v] : gauges) gauge(name).add(v);
  for (const auto& [name, h] : histograms) histogram(name).merge_from(h);
}

namespace {

void append_kv(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string MetricsRegistry::to_json() const {
  MutexLock lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    append_kv(out, "%s\n    \"%s\": %llu", first ? "" : ",", name.c_str(),
              static_cast<unsigned long long>(c.value()));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    append_kv(out, "%s\n    \"%s\": %lld", first ? "" : ",", name.c_str(),
              static_cast<long long>(g.value()));
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    append_kv(
        out,
        "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, \"min\": %llu, "
        "\"max\": %llu, \"mean\": %llu, \"p50\": %llu, \"p99\": %llu}",
        first ? "" : ",", name.c_str(),
        static_cast<unsigned long long>(h.count()),
        static_cast<unsigned long long>(h.sum()),
        static_cast<unsigned long long>(h.min()),
        static_cast<unsigned long long>(h.max()),
        static_cast<unsigned long long>(h.mean()),
        static_cast<unsigned long long>(h.quantile(0.50)),
        static_cast<unsigned long long>(h.quantile(0.99)));
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace stellar::obs
