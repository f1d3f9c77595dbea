// Fixture: other bench files must route timing through bench_util.h (or
// carry a justified suppression, like the second call below).
#include <chrono>

namespace stellar {

double direct_timing() {
  auto t0 = std::chrono::steady_clock::now();  // expect: wall-clock
  // stellar-lint: allow(wall-clock) fixture: justified suppression
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace stellar
