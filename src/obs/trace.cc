#include "obs/trace.h"

#include <cstdarg>
#include <cstdio>

namespace stellar::obs {

namespace {

constexpr std::string_view kCatNames[kTraceCats] = {
    "sim",       "pvdma", "atc",  "mtt",   "gdr",
    "transport", "net",   "link", "fault", "collective",
};

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

}  // namespace

std::string_view trace_cat_name(TraceCat cat) {
  return kCatNames[static_cast<int>(cat)];
}

Tracer::Tracer() {
  for (int i = 0; i < kTraceCats; ++i) {
    sample_period_[i] = 1;
    offered_[i] = 0;
  }
}

void Tracer::copy_config(const Tracer& from) {
  std::uint32_t period[kTraceCats];
  {
    MutexLock lock(from.mu_);
    for (int i = 0; i < kTraceCats; ++i) period[i] = from.sample_period_[i];
  }
  MutexLock lock(mu_);
  for (int i = 0; i < kTraceCats; ++i) sample_period_[i] = period[i];
}

void Tracer::append_from(const Tracer& from) {
  // Copy under the source lock, splice under ours: never hold both (the
  // merge runs on one thread, but a fixed single-lock discipline keeps the
  // analysis and TSan trivially happy).
  std::vector<Event> copied;
  std::uint64_t offered[kTraceCats];
  std::uint64_t dropped = 0;
  {
    MutexLock lock(from.mu_);
    copied = from.events_;
    for (int i = 0; i < kTraceCats; ++i) offered[i] = from.offered_[i];
    dropped = from.dropped_;
  }
  MutexLock lock(mu_);
  events_.insert(events_.end(), std::make_move_iterator(copied.begin()),
                 std::make_move_iterator(copied.end()));
  for (int i = 0; i < kTraceCats; ++i) offered_[i] += offered[i];
  dropped_ += dropped;
}

bool Tracer::admit(TraceCat cat) {
  const int c = static_cast<int>(cat);
  const std::uint64_t n = offered_[c]++;
  if (n % sample_period_[c] != 0) {
    ++dropped_;
    return false;
  }
  return true;
}

void Tracer::complete(TraceCat cat, std::string_view name, SimTime ts,
                      SimTime dur, const TraceArgs& args) {
  MutexLock lock(mu_);
  if (!admit(cat)) return;
  events_.push_back(Event{'X', cat, std::string(name), ts, dur, args});
}

void Tracer::instant(TraceCat cat, std::string_view name, SimTime ts,
                     const TraceArgs& args) {
  MutexLock lock(mu_);
  if (!admit(cat)) return;
  events_.push_back(
      Event{'i', cat, std::string(name), ts, SimTime::zero(), args});
}

void Tracer::counter(TraceCat cat, std::string_view name, SimTime ts,
                     std::int64_t value) {
  MutexLock lock(mu_);
  if (!admit(cat)) return;
  events_.push_back(Event{'C', cat, std::string(name), ts, SimTime::zero(),
                          TraceArgs{"value", value}});
}

std::string Tracer::to_json() const {
  MutexLock lock(mu_);
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  // Metadata first: name each category track.
  for (int i = 0; i < kTraceCats; ++i) {
    append_fmt(out,
               "{\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"name\":\"thread_name\","
               "\"args\":{\"name\":\"%.*s\"}},\n",
               i, static_cast<int>(kCatNames[i].size()), kCatNames[i].data());
  }
  for (std::size_t e = 0; e < events_.size(); ++e) {
    const Event& ev = events_[e];
    const int tid = static_cast<int>(ev.cat);
    switch (ev.phase) {
      case 'X':
        append_fmt(out,
                   "{\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%lld,"
                   "\"dur\":%lld,\"name\":\"%s\"",
                   tid, static_cast<long long>(ev.ts.ps()),
                   static_cast<long long>(ev.dur.ps()), ev.name.c_str());
        break;
      case 'i':
        append_fmt(out,
                   "{\"ph\":\"i\",\"pid\":0,\"tid\":%d,\"ts\":%lld,"
                   "\"s\":\"t\",\"name\":\"%s\"",
                   tid, static_cast<long long>(ev.ts.ps()), ev.name.c_str());
        break;
      case 'C':
        append_fmt(out,
                   "{\"ph\":\"C\",\"pid\":0,\"tid\":%d,\"ts\":%lld,"
                   "\"name\":\"%s\"",
                   tid, static_cast<long long>(ev.ts.ps()), ev.name.c_str());
        break;
      default:
        continue;
    }
    if (ev.args.n > 0) {
      out += ",\"args\":{";
      for (int a = 0; a < ev.args.n; ++a) {
        append_fmt(out, "%s\"%s\":%lld", a == 0 ? "" : ",",
                   ev.args.args[a].key,
                   static_cast<long long>(ev.args.args[a].value));
      }
      out += "}";
    }
    out += "},\n";
  }
  // Drop the trailing comma (there is always at least the metadata block).
  out.erase(out.size() - 2);
  out += "\n]}\n";
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = n == json.size() && std::fclose(f) == 0;
  if (n != json.size()) std::fclose(f);
  return ok;
}

}  // namespace stellar::obs
