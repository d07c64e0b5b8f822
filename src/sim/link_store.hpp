// ShardLinkStore: a shard's directed-link state, sparse by construction.
//
// A shard indexes per-link stochastic state by (row, dst), where rows are
// the source nodes the shard's store covers and dst ranges over all n
// nodes. Each node pings only its gossip-grown neighbor set (paper Sec. VI),
// so the rows x n logical matrix is almost entirely empty: the store keeps
// a per-row CompactSlotIndex (dst -> slab slot) over one shared slab, making
// memory O(links actually touched) with a two-cache-probe lookup at any n.
//
// Fresh slots are value-initialized on first touch, and every link's state
// is seeded from its own key, so the physical layout never leaks into
// results — tests/sim/link_store_test.cpp pins the slot-level contract
// against a dense reference.
//
// Not thread-safe; every store is owned by exactly one shard. References
// returned by at() are invalidated by the next first-touch insertion (the
// slab is a vector) — use within one event, like any container reference.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/compact_index.hpp"

namespace nc {

template <typename T>
class ShardLinkStore {
 public:
  ShardLinkStore() = default;

  ShardLinkStore(std::size_t rows, std::size_t cols)
      : cols_(cols), row_index_(rows) {
    NC_CHECK_MSG(cols_ <= std::numeric_limits<std::uint32_t>::max(),
                 "column space exceeds the compact-index key width");
  }

  /// The state at (row, col), created value-initialized on first touch.
  [[nodiscard]] T& at(std::size_t row, std::size_t col) {
    NC_ASSERT(row < rows() && col < cols_);
    CompactSlotIndex& index = row_index_[row];
    if (const auto slot = index.find(static_cast<std::uint32_t>(col));
        slot.has_value())
      return slab_[*slot];
    if (!free_slots_.empty()) {
      // Reuse a slot released by extract_row — migration churn must not
      // leak slab capacity.
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      index.insert(static_cast<std::uint32_t>(col), slot);
      slab_[slot] = T();
      return slab_[slot];
    }
    NC_CHECK_MSG(slab_.size() < std::numeric_limits<std::uint32_t>::max(),
                 "shard link slab exceeds the compact-index value width");
    index.insert(static_cast<std::uint32_t>(col),
                 static_cast<std::uint32_t>(slab_.size()));
    slab_.emplace_back();
    return slab_.back();
  }

  /// Moves every live slot of `row` out (appended to `out` as (col, state),
  /// sorted by col — the canonical order; physical slab/hash layout never
  /// leaks) and resets the row to untouched. `live(state)` filters which
  /// slots are worth carrying (e.g. initialized links); dead slots are
  /// released either way. Used by ownership migration to pack a node's
  /// outgoing-link state.
  template <typename Live>
  void extract_row(std::size_t row, std::vector<std::pair<std::uint32_t, T>>& out,
                   Live&& live) {
    NC_ASSERT(row < rows());
    const std::size_t start = out.size();
    CompactSlotIndex& index = row_index_[row];
    index.for_each([&](std::uint32_t col, std::uint32_t slot) {
      if (live(slab_[slot])) out.emplace_back(col, std::move(slab_[slot]));
      slab_[slot] = T();
      free_slots_.push_back(slot);
    });
    index.clear();
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(start), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }

  /// Installs a packed row from extract_row into (an untouched) `row`.
  void install_row(std::size_t row,
                   const std::vector<std::pair<std::uint32_t, T>>& cells) {
    for (const auto& [col, state] : cells) at(row, col) = state;
  }

  /// Read-only probe: the slot's address, or nullptr when never touched.
  [[nodiscard]] const T* try_at(std::size_t row, std::size_t col) const noexcept {
    NC_ASSERT(row < rows() && col < cols_);
    const auto slot = row_index_[row].find(static_cast<std::uint32_t>(col));
    return slot.has_value() ? &slab_[*slot] : nullptr;
  }

  [[nodiscard]] std::size_t rows() const noexcept { return row_index_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  /// Slab slots materialized so far (live plus released-for-reuse).
  [[nodiscard]] std::size_t touched() const noexcept { return slab_.size(); }

  /// Heap bytes held right now: slab, free list and every per-row table.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t bytes = slab_.capacity() * sizeof(T) +
                        free_slots_.capacity() * sizeof(std::uint32_t) +
                        row_index_.capacity() * sizeof(CompactSlotIndex);
    for (const CompactSlotIndex& index : row_index_) bytes += index.memory_bytes();
    return bytes;
  }

 private:
  std::size_t cols_ = 0;
  std::vector<CompactSlotIndex> row_index_;
  std::vector<T> slab_;
  /// Slab slots released by extract_row, reused before the slab grows.
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace nc
