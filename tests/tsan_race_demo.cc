// Deliberate data race — the negative control for the TSan wiring.
//
// The pattern is an *unprotected* single-producer/single-consumer event
// channel: one producer thread pushing events while a consumer thread
// drains, but with plain (non-atomic) cursors and no release/acquire
// pairing — exactly the bug a real SPSC queue's memory ordering exists to
// prevent. tools/ci_checks.sh runs this binary in the
// -DSTELLAR_SANITIZE=thread build and requires it to FAIL (TSan's default
// exit code on a detected race is 66). If it ever runs clean under TSan,
// the sanitizer gate itself is broken — misconfigured flags would
// otherwise let the real smoke tests (tests/tsan_smoke_test.cc,
// tests/tsan_parallel_test.cc) pass vacuously.
//
// Not registered with ctest: in a plain build the race is benign-looking
// and the binary exits 0, which is exactly why it must only be interpreted
// under TSan.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>

namespace {

struct Event {
  std::int64_t at_ps = 0;
  std::uint64_t stamp = 0;
};

// An SPSC ring without its atomics: plain cursors, plain slot writes, no
// ordering. The producer's slot write can race the consumer's
// slot read, and the cursor loads/stores tear freely.
struct UnprotectedChannel {
  static constexpr std::size_t kSlots = 1024;
  Event slots[kSlots];
  std::size_t head = 0;  // racy on purpose: consumer cursor, no atomic
  std::size_t tail = 0;  // racy on purpose: producer cursor, no atomic
};

}  // namespace

int main() {
  UnprotectedChannel ch;
  std::uint64_t drained = 0;
  std::int64_t last_ps = 0;

  std::thread producer([&ch] {
    for (std::uint64_t i = 0; i < 100000; ++i) {
      Event& e = ch.slots[ch.tail % UnprotectedChannel::kSlots];
      e.at_ps = static_cast<std::int64_t>(i) * 600;
      e.stamp = (i << 5) | 1;
      ch.tail = ch.tail + 1;  // unordered publish: consumer may see the
                              // cursor before the slot contents
    }
  });
  std::thread consumer([&ch, &drained, &last_ps] {
    // Bounded drain loop so the binary terminates in every build; the
    // cursor reads and slot reads race the producer throughout.
    for (std::uint64_t spin = 0; spin < 2000000; ++spin) {
      if (ch.head == ch.tail) continue;
      const Event& e = ch.slots[ch.head % UnprotectedChannel::kSlots];
      last_ps += e.at_ps + static_cast<std::int64_t>(e.stamp & 31);
      ch.head = ch.head + 1;
      ++drained;
    }
  });
  producer.join();
  consumer.join();

  std::printf("tsan_race_demo: drained %llu events, checksum %lld\n",
              static_cast<unsigned long long>(drained),
              static_cast<long long>(last_ps));
  return 0;
}
