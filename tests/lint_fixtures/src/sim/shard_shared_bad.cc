// Fixture: shard-shared — mutable file-scope/static state in the
// shard-homed modules (src/sim, src/net, src/core). Run-level sharding
// (core/run_shard.h) runs whole simulations on concurrent worker threads,
// so any mutable static is both a data race and a cross-run determinism
// leak.
#include <atomic>
#include <cstdint>
#include <vector>

namespace stellar {
namespace {

int g_mutable_counter = 0;              // expect: shard-shared
std::atomic<std::uint64_t> g_total{0};  // expect: shard-shared
std::vector<int> g_scratch;             // expect: shard-shared

const int kLimit = 8;                      // const: immutable, fine
constexpr std::uint64_t kMask = 0xffull;   // constexpr: fine
static constexpr int kTableSize = 32;      // static constexpr: fine
static const char* const kName = "shard";  // static const: fine
static_assert(kTableSize > 0, "sanity");   // not state at all

// thread_local is shard-private by construction (one worker per shard).
thread_local int tl_scratch = 0;

// stellar-lint: allow(shard-shared) fixture: justified process-global
std::uint64_t g_allowed_total = 0;

std::uint64_t helper(std::uint64_t x) { return x + kMask; }  // fn: fine

}  // namespace

struct FixtureWidget {
  static int live_count;            // expect: shard-shared
  static const int kMax = 4;        // static const member: fine
  static int current_worker();      // static member function decl: fine
  int value = 0;                    // plain member: per-instance, fine
};

int FixtureWidget::live_count = 0;  // expect: shard-shared

std::uint64_t bump() {
  static std::uint64_t calls = 0;   // expect: shard-shared
  return ++calls + helper(static_cast<std::uint64_t>(kLimit));
}

}  // namespace stellar
