// Fixture: unordered-container iteration in deterministic contexts.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ordered.h"

namespace stellar {

class Thing {
 public:
  // Emitter context: serialization must be byte-deterministic.
  std::string to_json() const {
    std::string out;
    for (const auto& [id, v] : table_) {  // expect: unordered-iter
      out += std::to_string(id) + std::to_string(v);
    }
    return out;
  }

  // Snapshot field list: the one list both archives walk.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self) {
    for (const auto& [id, v] : self.table_) {  // expect: unordered-iter
      ar(id, v);
    }
  }

  // Scheduling context: event order must not depend on hash layout.
  void restart_all() {
    for (const auto& [id, v] : table_) {  // expect: unordered-iter
      schedule_probe(id);
    }
    for (std::uint64_t m : members_) {  // expect: unordered-iter
      send(m);
    }
  }

  // Clean: collect-then-sort never leaks hash order.
  std::string save_state() const {
    std::vector<std::uint64_t> keys;
    for (const auto& [id, v] : table_) keys.push_back(id);
    std::sort(keys.begin(), keys.end());
    std::string out;
    for (std::uint64_t id : keys) out += std::to_string(table_.at(id));
    return out;
  }

  // Clean: the common/ordered.h helpers are the same idiom, named.
  std::string snapshot() const {
    std::string out;
    for (std::uint64_t id : sorted_keys(table_)) {
      out += std::to_string(table_.at(id));
    }
    return out;
  }

  // Clean: order-insensitive reduction outside any emitter.
  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& [id, v] : table_) sum += v;
    return sum;
  }

  // Suppression with a justification.
  std::string digest() const {
    std::uint64_t x = 0;
    // stellar-lint: allow(unordered-iter) fixture: XOR is order-insensitive
    for (const auto& [id, v] : table_) x ^= id * v;
    return std::to_string(x);
  }

 private:
  void schedule_probe(std::uint64_t) {}
  void send(std::uint64_t) {}

  std::unordered_map<std::uint64_t, std::uint64_t> table_;
  std::unordered_set<std::uint64_t> members_;
};

}  // namespace stellar
