// ShardLinkStore: the sparse directed-link store must be observationally
// identical to a dense rows x cols array — same value at every (row, col),
// same first-touch semantics, same rows moved by extract/install — while
// holding memory only for the links actually touched. The engine-level
// bit-identity suites (sharded_sim_test, rebalance_test) pin the science;
// this file pins the slot-level contract.
#include "sim/link_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace nc {
namespace {

struct Slot {
  std::uint64_t value = 0;
  bool touched = false;
};

using Row = std::vector<std::pair<std::uint32_t, Slot>>;

bool is_touched(const Slot& s) { return s.touched; }

/// The reference layout: every slot materialized up front, value-initialized.
class DenseReference {
 public:
  DenseReference(std::size_t rows, std::size_t cols)
      : cols_(cols), cells_(rows * cols) {}

  Slot& at(std::size_t row, std::size_t col) { return cells_[row * cols_ + col]; }

  /// Same contract as ShardLinkStore::extract_row: live slots out in column
  /// order, the whole row reset.
  void extract_row(std::size_t row, Row& out) {
    for (std::size_t col = 0; col < cols_; ++col) {
      Slot& s = at(row, col);
      if (is_touched(s)) out.emplace_back(static_cast<std::uint32_t>(col), s);
      s = Slot{};
    }
  }

  void install_row(std::size_t row, const Row& cells) {
    for (const auto& [col, state] : cells) at(row, col) = state;
  }

 private:
  std::size_t cols_;
  std::vector<Slot> cells_;
};

void expect_same_row(const Row& sparse, const Row& dense) {
  ASSERT_EQ(sparse.size(), dense.size());
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_EQ(sparse[i].first, dense[i].first);
    EXPECT_EQ(sparse[i].second.value, dense[i].second.value);
    if (i > 0) {
      EXPECT_LT(sparse[i - 1].first, sparse[i].first);
    }
  }
}

TEST(ShardLinkStore, MatchesDenseReferenceThroughTouchExtractInstall) {
  constexpr std::size_t kRows = 16;
  constexpr std::size_t kCols = 64;
  ShardLinkStore<Slot> store(kRows, kCols);
  DenseReference ref(kRows, kCols);
  EXPECT_EQ(store.rows(), kRows);
  EXPECT_EQ(store.cols(), kCols);

  // A scattered touch pattern with revisits, interleaved with row moves
  // (extract one row, clear another, install the first into the second —
  // the migration pattern): first touch must read value-initialized, every
  // revisit must read back the last write, in both layouts alike.
  Rng rng(42);
  for (int step = 1; step <= 4000; ++step) {
    const auto row = static_cast<std::size_t>(rng.next_u64() % kRows);
    if (rng.next_u64() % 16 == 0) {
      const auto dst = static_cast<std::size_t>(rng.next_u64() % kRows);
      if (dst == row) continue;
      const std::size_t slab_before = store.touched();
      Row moved, moved_ref, dropped, dropped_ref;
      store.extract_row(row, moved, is_touched);
      ref.extract_row(row, moved_ref);
      expect_same_row(moved, moved_ref);
      store.extract_row(dst, dropped, is_touched);
      ref.extract_row(dst, dropped_ref);
      expect_same_row(dropped, dropped_ref);
      store.install_row(dst, moved);
      ref.install_row(dst, moved_ref);
      // The install reuses slots released by the extracts: no slab growth.
      EXPECT_EQ(store.touched(), slab_before);
      continue;
    }
    const auto col = static_cast<std::size_t>(rng.next_u64() % kCols);
    Slot& s = store.at(row, col);
    Slot& d = ref.at(row, col);
    ASSERT_EQ(s.touched, d.touched);
    ASSERT_EQ(s.value, d.value);
    s = d = Slot{static_cast<std::uint64_t>(step), true};
  }

  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c) {
      const Slot* s = store.try_at(r, c);
      const Slot& d = ref.at(r, c);
      if (s == nullptr) {
        EXPECT_FALSE(d.touched) << "(" << r << ", " << c << ")";
      } else {
        EXPECT_EQ(s->touched, d.touched) << "(" << r << ", " << c << ")";
        EXPECT_EQ(s->value, d.value) << "(" << r << ", " << c << ")";
      }
    }
}

TEST(ShardLinkStore, ExtractRowSortsByColumnAndReleasesEverySlot) {
  ShardLinkStore<Slot> store(2, 1000);
  // Touch in descending column order so hash layout and insertion order
  // both disagree with the canonical order; every third slot stays dead.
  for (std::size_t c = 999; c >= 900; --c)
    store.at(0, c) = Slot{c, c % 3 != 0};
  const std::size_t slab = store.touched();
  EXPECT_EQ(slab, 100u);

  Row out;
  store.extract_row(0, out, is_touched);
  ASSERT_FALSE(out.empty());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NE(out[i].first % 3, 0u);  // dead slots are not carried
    EXPECT_EQ(out[i].second.value, out[i].first);
    if (i > 0) {
      EXPECT_LT(out[i - 1].first, out[i].first);
    }
  }
  // The row reads untouched again, and all 100 slots (live and dead) are
  // reused before the slab grows.
  EXPECT_EQ(store.try_at(0, 950), nullptr);
  for (std::size_t c = 0; c < 100; ++c) {
    EXPECT_FALSE(store.at(1, c).touched);
    store.at(1, c).touched = true;
  }
  EXPECT_EQ(store.touched(), slab);
  store.at(1, 100).touched = true;
  EXPECT_EQ(store.touched(), slab + 1);
}

TEST(ShardLinkStore, SparseMemoryTracksTouchedLinksNotLogicalSpace) {
  // A 1000 x 100000 logical space (1e8 slots) where only 64 links per row
  // are ever touched: memory must scale with 64k touched slots, not 1e8.
  ShardLinkStore<Slot> store(1000, 100000);
  for (std::size_t r = 0; r < 1000; ++r)
    for (std::size_t k = 0; k < 64; ++k)
      store.at(r, (k * 1543) % 100000).value = r;
  EXPECT_EQ(store.touched(), 64u * 1000u);
  // Slab + per-row tables; far under the ~1.6 GB a dense array would hold.
  EXPECT_LT(store.memory_bytes(), std::size_t{64} << 20);
}

TEST(ShardLinkStore, SparseReferencesStableWithinOneTouch) {
  ShardLinkStore<Slot> store(4, 1000);
  for (std::size_t c = 0; c < 1000; ++c) {
    Slot& s = store.at(2, c);
    s.value = c;  // written through the just-returned reference
  }
  for (std::size_t c = 0; c < 1000; ++c)
    EXPECT_EQ(store.at(2, c).value, c);
}

}  // namespace
}  // namespace nc
