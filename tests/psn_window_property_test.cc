// Property tests of the transport's PSN-indexed window state
// (rnic/psn_window.h) against ordered-container references: the sender's
// SendWindow against a std::map of unacked PSNs, the receiver's
// ReceiveWindow against a floor plus a std::set of PSNs above it. Seeded
// send / ACK / retransmit sequences, plus the corners a ring gets wrong:
// one PSN stuck while many newer ones pass, growth while the ring is
// wrapped, clear, restore with gaps, ids skipped by the sender and records
// that own heap state, and a PSN further above the floor than the bitmap
// spans.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "rnic/psn_window.h"

namespace stellar {
namespace {

struct Rec {
  std::uint64_t value = 0;
  std::uint32_t retries = 0;
};

using Window = SendWindow<Rec>;
using RefMap = std::map<std::uint64_t, Rec>;

/// Full equivalence: same live PSNs, in the same (ascending) order, with
/// the same records, and a lookup of every PSN in [lo, hi) agrees.
void expect_same(const Window& w, const RefMap& ref, std::uint64_t lo,
                 std::uint64_t hi) {
  ASSERT_EQ(w.size(), ref.size());
  ASSERT_EQ(w.empty(), ref.empty());
  auto it = ref.begin();
  for (const auto& [psn, rec] : w) {
    ASSERT_NE(it, ref.end());
    ASSERT_EQ(psn, it->first);
    ASSERT_EQ(rec.value, it->second.value);
    ASSERT_EQ(rec.retries, it->second.retries);
    ++it;
  }
  ASSERT_EQ(it, ref.end());
  for (std::uint64_t psn = lo; psn < hi; ++psn) {
    const Rec* got = w.find(psn);
    const auto want = ref.find(psn);
    ASSERT_EQ(got != nullptr, want != ref.end()) << "psn " << psn;
    if (got != nullptr) {
      ASSERT_EQ(got->value, want->second.value);
    }
  }
  ASSERT_GE(w.ring_capacity(), w.span());
}

/// Removes the index-th live PSN from both, returning it.
std::uint64_t erase_nth(Window& w, RefMap& ref, std::size_t index) {
  auto it = std::next(ref.begin(), static_cast<std::ptrdiff_t>(index));
  const std::uint64_t psn = it->first;
  ref.erase(it);
  w.erase(psn);
  return psn;
}

TEST(SendWindowPropertyTest, SeededSendAckRetransmitMatchesMap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Window w;
    RefMap ref;
    std::uint64_t next_psn = rng.below(1000);
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(100);
      if (op < 45 || ref.empty()) {
        // Send: PSNs are issued monotonically.
        const Rec rec{rng.next(), 0};
        w.insert(next_psn, rec);
        ref.emplace(next_psn, rec);
        ++next_psn;
      } else if (op < 80) {
        // ACK a live PSN: mostly the oldest few (in-order delivery), now
        // and then any of them (spraying reorders).
        const std::size_t n = ref.size();
        const std::size_t index =
            rng.chance(0.7) ? rng.below(std::min<std::size_t>(n, 3))
                            : rng.below(n);
        erase_nth(w, ref, index);
      } else if (op < 90) {
        // ACK for a superseded copy or a PSN never sent: a miss.
        const std::uint64_t psn = rng.below(next_psn + 64);
        ASSERT_EQ(w.find(psn) != nullptr, ref.count(psn) != 0);
      } else if (op < 99) {
        // Retransmit: the record is updated in place.
        auto it = std::next(
            ref.begin(), static_cast<std::ptrdiff_t>(rng.below(ref.size())));
        Rec* rec = w.find(it->first);
        ASSERT_NE(rec, nullptr);
        ++rec->retries;
        rec->value = rng.next();
        it->second = *rec;
      } else {
        // QP error / fluid freeze: everything goes.
        w.clear();
        ref.clear();
      }
      if (step % 97 == 0) {
        const std::uint64_t lo = next_psn > 600 ? next_psn - 600 : 0;
        expect_same(w, ref, lo, next_psn + 8);
      }
    }
    expect_same(w, ref, 0, next_psn + 8);
  }
}

TEST(SendWindowPropertyTest, StuckPsnWhileTenThousandNewerSent) {
  Window w;
  RefMap ref;
  Rng rng(7);
  const std::uint64_t stuck = 3;
  for (std::uint64_t psn = 0; psn <= stuck; ++psn) {
    w.insert(psn, Rec{psn, 0});
    ref.emplace(psn, Rec{psn, 0});
  }
  for (std::uint64_t psn = 0; psn < stuck; ++psn) {
    w.erase(psn);
    ref.erase(psn);
  }
  // 20,000 newer PSNs flow through a ~64-packet window while `stuck` is
  // never acknowledged (its retries pile up instead).
  std::uint64_t next_psn = stuck + 1;
  std::size_t peak_live = 0;
  for (int i = 0; i < 20000; ++i) {
    w.insert(next_psn, Rec{next_psn, 0});
    ref.emplace(next_psn, Rec{next_psn, 0});
    ++next_psn;
    peak_live = std::max(peak_live, ref.size());
    if (ref.size() > 64) {
      // ACK any live PSN except the stuck one.
      erase_nth(w, ref, 1 + rng.below(ref.size() - 1));
    }
    if (i % 2500 == 0) {
      Rec* rec = w.find(stuck);
      ASSERT_NE(rec, nullptr);
      ++rec->retries;
      ref[stuck].retries = rec->retries;
    }
  }
  EXPECT_GE(w.span(), 20000u);
  EXPECT_GE(w.ring_capacity(), w.span());
  // The records follow the packets in flight, not the PSN span.
  EXPECT_LE(w.record_capacity(), 2 * peak_live);
  expect_same(w, ref, 0, next_psn + 8);

  // Acking the stuck PSN releases the span down to the live packets.
  w.erase(stuck);
  ref.erase(stuck);
  EXPECT_EQ(w.span(), next_psn - ref.begin()->first);
  expect_same(w, ref, 0, next_psn + 8);
}

TEST(SendWindowPropertyTest, GrowthWhileRingIsWrapped) {
  Window w;
  RefMap ref;
  // Fill and drain so the base sits near the top of a 16-slot ring.
  for (std::uint64_t psn = 0; psn < 13; ++psn) {
    w.insert(psn, Rec{psn, 0});
    w.erase(psn);
  }
  ASSERT_EQ(w.ring_capacity(), 16u);
  // PSNs 13..28 fill the ring exactly, wrapping past slot 15 into 0..12.
  for (std::uint64_t psn = 13; psn < 29; ++psn) {
    w.insert(psn, Rec{psn * 10, 0});
    ref.emplace(psn, Rec{psn * 10, 0});
  }
  ASSERT_EQ(w.ring_capacity(), 16u);
  // Punch holes, then grow twice while wrapped.
  for (std::uint64_t psn : {14u, 17u, 27u}) {
    w.erase(psn);
    ref.erase(psn);
  }
  for (std::uint64_t psn = 29; psn < 80; psn += 3) {
    w.insert(psn, Rec{psn * 10, 0});
    ref.emplace(psn, Rec{psn * 10, 0});
  }
  EXPECT_GE(w.ring_capacity(), 64u);
  expect_same(w, ref, 0, 100);
  // Drain from the base: the base walks over the holes.
  while (!ref.empty()) {
    erase_nth(w, ref, 0);
    expect_same(w, ref, 0, 100);
  }
  EXPECT_EQ(w.span(), 0u);
}

TEST(SendWindowPropertyTest, ClearForgetsEverythingAndRestartsAnywhere) {
  Window w;
  for (std::uint64_t psn = 100; psn < 300; ++psn) w.insert(psn, Rec{psn, 0});
  w.erase(150);
  const std::size_t ring = w.ring_capacity();
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.span(), 0u);
  EXPECT_FALSE(w.begin() != w.end());
  for (std::uint64_t psn = 90; psn < 310; ++psn) {
    ASSERT_EQ(w.find(psn), nullptr);
  }
  EXPECT_EQ(w.ring_capacity(), ring);  // capacity is kept
  // An empty window restarts at any PSN, even one below the old span.
  RefMap ref;
  for (std::uint64_t psn : {5u, 6u, 9u}) {
    w.insert(psn, Rec{psn, 0});
    ref.emplace(psn, Rec{psn, 0});
  }
  expect_same(w, ref, 0, 400);
}

TEST(SendWindowPropertyTest, RestoreWithGapsKeepsPsnOrder) {
  // A snapshot holds the unacked PSNs ascending, with gaps where ACKs
  // landed; restore inserts them in that order into an empty window.
  const std::vector<std::uint64_t> saved = {1000, 1001, 1003, 1250, 1251,
                                            4000, 4096, 4097, 9000};
  Window w;
  RefMap ref;
  for (std::uint64_t psn : saved) {
    w.insert(psn, Rec{psn + 1, 0});
    ref.emplace(psn, Rec{psn + 1, 0});
  }
  EXPECT_EQ(w.span(), 9000u - 1000u + 1u);
  expect_same(w, ref, 900, 9100);
  erase_nth(w, ref, 0);
  erase_nth(w, ref, 0);
  EXPECT_EQ(w.span(), 9000u - 1003u + 1u);  // the base skipped the gap
  expect_same(w, ref, 900, 9100);
  w.insert(9001, Rec{1, 0});  // sending resumes above the restored span
  ref.emplace(9001, Rec{1, 0});
  expect_same(w, ref, 900, 9100);
}

TEST(SendWindowPropertyTest, MessageTableSkipsIdsAndMovesRecords) {
  // The transport's message table: keyed by message id, a record owning a
  // callback. An id consumed without an insert (a post to an errored QP)
  // is a hole later inserts step over; out-of-order completion (a READ or
  // a small sprayed WRITE finishing first) erases above the base; a record
  // is moved in, never copied.
  struct Msg {
    std::uint64_t bytes = 0;
    std::function<void()> on_complete;
  };
  SendWindow<Msg> w;
  int fired = 0;
  const auto insert = [&](std::uint64_t id) {
    Msg m{id * 100, [&fired] { ++fired; }};
    w.insert(id, std::move(m));
    EXPECT_FALSE(m.on_complete) << "the record was copied, not moved";
  };
  insert(0);
  insert(1);
  insert(3);  // id 2 was consumed without an insert
  insert(4);
  std::vector<std::uint64_t> ids;
  for (const auto& [id, m] : w) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 3, 4}));
  EXPECT_EQ(w.find(2), nullptr);

  // Complete 3 before 0 and 1, as callers do: move the callback out, erase,
  // then run it (the callback may post, reusing the freed slot).
  const auto complete = [&](std::uint64_t id) {
    std::function<void()> cb = std::move(w.at(id).on_complete);
    w.erase(id);
    cb();
  };
  complete(3);
  insert(5);  // reuses 3's slot
  ids.clear();
  for (const auto& [id, m] : w) ids.push_back(id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 4, 5}));
  EXPECT_EQ(w.at(5).bytes, 500u);
  complete(0);
  complete(1);
  complete(4);
  complete(5);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(fired, 5);
  insert(9);  // an empty table restarts at any id
  EXPECT_EQ(w.at(9).bytes, 900u);
}

// ---------------------------------------------------------------------------
// ReceiveWindow against a floor + std::set reference.
// ---------------------------------------------------------------------------

struct RefReceive {
  std::uint64_t floor = 0;
  std::set<std::uint64_t> above;

  bool record(std::uint64_t psn) {
    if (psn < floor) return false;
    if (!above.insert(psn).second) return false;
    while (above.erase(floor) != 0) ++floor;
    return true;
  }
};

void expect_same(const ReceiveWindow& w, const RefReceive& ref) {
  ASSERT_EQ(w.floor(), ref.floor);
  ASSERT_TRUE(w.compacted());
  std::vector<std::uint64_t> got;
  w.for_each_above_floor([&got](std::uint64_t psn) { got.push_back(psn); });
  ASSERT_EQ(got,
            std::vector<std::uint64_t>(ref.above.begin(), ref.above.end()));
  ASSERT_EQ(w.above_floor_count(), ref.above.size());
  // contains() agrees on every PSN up to well past the highest stored one
  // (past what the bitmap spans, too).
  const std::uint64_t top =
      (ref.above.empty() ? ref.floor : *ref.above.rbegin()) +
      64 * w.capacity_words() + 64;
  for (std::uint64_t psn = 0; psn <= top; ++psn) {
    ASSERT_EQ(w.contains(psn), psn < ref.floor || ref.above.count(psn) != 0)
        << "psn " << psn;
  }
}

TEST(ReceiveWindowPropertyTest, SeededArrivalsMatchSetReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    ReceiveWindow w;
    RefReceive ref;
    std::uint64_t highest = 0;
    for (int step = 0; step < 6000; ++step) {
      std::uint64_t psn;
      const std::uint64_t op = rng.below(100);
      if (op < 60) {
        // Sprayed arrival: within a reorder window above the floor.
        psn = ref.floor + rng.below(48);
      } else if (op < 80) {
        // Duplicate or stale retransmit: at or below what has arrived.
        psn = highest > 0 ? rng.below(highest + 1) : 0;
      } else if (op < 97) {
        // A loss hole: the floor is held while later PSNs keep arriving.
        psn = ref.floor + 1 + rng.below(300);
      } else if (w.capacity_words() < 64) {
        // Far above the floor: at or past the end of what the bitmap spans
        // now (capped, or the holes it leaves would grow it without end).
        psn = ref.floor + 64 * w.capacity_words() + rng.below(128);
      } else {
        psn = ref.floor;
      }
      highest = std::max(highest, psn);
      ASSERT_EQ(w.record(psn), ref.record(psn))
          << "seed " << seed << " step " << step << " psn " << psn;
      if (step % 61 == 0) expect_same(w, ref);
    }
    // Fill every hole: the floor sweeps up to the highest PSN.
    for (std::uint64_t psn = 0; psn <= highest; ++psn) {
      ASSERT_EQ(w.record(psn), ref.record(psn));
    }
    EXPECT_EQ(w.floor(), highest + 1);
    expect_same(w, ref);
  }
}

TEST(ReceiveWindowPropertyTest, PsnBeyondBitmapSpanDoesNotAlias) {
  // For every floor offset inside a word: store a PSN, then receive the
  // PSN exactly one bitmap span above it, which lands on the same bit of a
  // ring that did not grow. It is fresh and must be recorded as such.
  for (std::uint64_t floor = 0; floor < 64; ++floor) {
    ReceiveWindow w;
    for (std::uint64_t psn = 0; psn < floor; ++psn) ASSERT_TRUE(w.record(psn));
    ASSERT_TRUE(w.record(floor + 2));
    const std::uint64_t words = w.capacity_words();
    ASSERT_GT(words, 0u);
    const std::uint64_t alias = floor + 2 + 64 * words;
    EXPECT_TRUE(w.record(alias)) << "floor " << floor;
    EXPECT_FALSE(w.record(alias));
    EXPECT_FALSE(w.record(floor + 2));
    EXPECT_TRUE(w.record(alias - 1));
    // The floor's word, with bits below the floor, must not alias either.
    const std::uint64_t near_alias = floor + 64 * w.capacity_words();
    EXPECT_TRUE(w.record(near_alias)) << "floor " << floor;
    EXPECT_TRUE(w.record(floor));  // the hole fills: floor moves to +1
    EXPECT_EQ(w.floor(), floor + 1);
    EXPECT_TRUE(w.compacted());
  }
}

TEST(ReceiveWindowPropertyTest, InOrderArrivalsNeverAllocate) {
  ReceiveWindow w;
  for (std::uint64_t psn = 0; psn < 100000; ++psn) ASSERT_TRUE(w.record(psn));
  EXPECT_EQ(w.floor(), 100000u);
  EXPECT_EQ(w.capacity_words(), 0u);
  EXPECT_EQ(w.above_floor_count(), 0u);
}

TEST(ReceiveWindowPropertyTest, RestoreWithGapsThenCompact) {
  // A snapshot carries the floor and the PSNs above it, ascending.
  ReceiveWindow w;
  RefReceive ref;
  w.reset(1000);
  ref.floor = 1000;
  for (std::uint64_t psn : {1001u, 1002u, 1003u, 1070u, 1200u, 5000u}) {
    w.mark(psn);
    ref.above.insert(psn);
  }
  expect_same(w, ref);
  // The hole at the floor fills: the floor sweeps the marked run.
  EXPECT_TRUE(w.record(1000));
  ref.record(1000);
  EXPECT_EQ(w.floor(), 1004u);
  expect_same(w, ref);
  // A reset to a new floor forgets the old marks.
  w.reset(7);
  ref = RefReceive{7, {}};
  expect_same(w, ref);
  EXPECT_TRUE(w.record(1070));
}

}  // namespace
}  // namespace stellar
