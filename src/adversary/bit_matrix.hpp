// adversary/bit_matrix.hpp — structure-of-arrays bit-matrix layouts for
// the adversary-structure scan kernels (util/simd.hpp).
//
// Two complementary layouts cover every hot membership shape:
//
//  * SubsetMatrix — the antichain of maximal sets as a column-block-major
//    word matrix (word w of row r at data[w*stride + r]) with rows
//    pre-sorted into ascending-popcount buckets. bucket_start_[p] is the
//    skip-list threshold: a candidate with popcount p starts scanning at
//    the first row with ≥ p bits, so it never touches rows provably too
//    small to contain it — the SoA successor of the sizes_[i] >= n filter
//    the AoS contains() loop used. Membership answers are exactly those
//    of the canonical antichain (debug_validate cross-checks row
//    round-trips); only scan order changes, which a boolean cannot see.
//
//  * ConjunctionRows — a LIFO stack of constraint row-groups for joint
//    membership. Constraint ⟨ground, E⟩ tests x ∩ ground ∈ E^ground; with
//    maximal sets M_j of E^ground that is ∃j: x ∩ ground ⊆ M_j, i.e.
//    ∃j: x ∩ (ground ∖ M_j) = ∅. CompiledGroup precomputes those
//    "forbidden rows" R_j = ground ∖ M_j once per constraint, so the DFS
//    push in the deciders is a plain row append — no restriction, no
//    NodeSet temporaries, no allocation after reserve. A group with no
//    rows is an unsatisfiable constraint (the empty family); a group
//    containing the empty row is always satisfied.
//
// Both layouts are derived caches: builders consume canonical NodeSet
// antichains via NodeSet::word_span() and audit validators re-derive the
// layout from the source antichain to prove the cache is in sync.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/node_set.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace rmt {

/// SoA antichain: popcount-bucketed rows, column-block-major words.
class SubsetMatrix {
 public:
  /// Rebuild from a canonical antichain (sorted, duplicate-free). Rows are
  /// re-ordered by (popcount asc, canonical index asc); src index r maps a
  /// matrix row back to its antichain position.
  void build(const std::vector<NodeSet>& antichain);

  /// Drop all rows (the not-built state: contains_subset answers as for an
  /// empty antichain; owners fall back to their scalar scan).
  void clear() {
    data_.clear();
    src_.clear();
    pops_.clear();
    bucket_start_.clear();
    nrows_ = 0;
    words_ = 0;
    stride_ = 0;
  }

  std::size_t num_rows() const { return nrows_; }
  std::size_t words_per_row() const { return words_; }
  std::size_t row_stride() const { return stride_; }

  /// ∃ maximal set ⊇ x — the antichain membership kernel. Equivalent to
  /// scanning the canonical antichain with a popcount filter.
  bool contains_subset(const NodeSet& x) const {
    const NodeSet::WordSpan xs = x.word_span();
    if (xs.count == 0) return nrows_ > 0;  // ∅ is a member of any non-empty family
    if (xs.count > words_) return false;   // canonical: a high word ⇒ a high bit
    const std::size_t p = x.size();
    if (p + 1 >= bucket_start_.size()) return false;  // more bits than any row
    return simd::subset_any(xs.words, xs.count, data_.data(), stride_, bucket_start_[p], nrows_);
  }

  /// Batched membership: out[i] = contains_subset(probes[i]). One call per
  /// candidate block amortizes dispatch and keeps the row matrix hot.
  void probe_batch(const NodeSet* probes, std::size_t k, bool* out) const {
    for (std::size_t i = 0; i < k; ++i) out[i] = contains_subset(probes[i]);
  }

  /// Skip-list threshold: index of the first row with popcount ≥ p
  /// (num_rows() when no row qualifies). Exposed for tests/benches.
  std::size_t first_row_for_popcount(std::size_t p) const {
    if (p + 1 >= bucket_start_.size()) return nrows_;
    return bucket_start_[p];
  }

  /// Reconstruct matrix row r as a canonical NodeSet (audit round-trip).
  NodeSet row_as_set(std::size_t r) const;
  /// Antichain index matrix row r was built from.
  std::uint32_t row_source_index(std::size_t r) const { return src_[r]; }

  /// Deep cross-validation against the source antichain (rmt::audit):
  /// row permutation, word round-trips, popcount bucket monotonicity and
  /// skip thresholds, zeroed padding lanes. Throws audit::AuditError with
  /// component `component`.
  void debug_validate_against(const std::vector<NodeSet>& antichain, const char* component) const;

 private:
  friend struct AuditTestAccess;  // tests corrupt internals to prove detection

  std::vector<std::uint64_t> data_;          // data_[w*stride_ + r]
  std::vector<std::uint32_t> src_;           // matrix row -> antichain index
  std::vector<std::uint32_t> pops_;          // row popcounts, ascending
  std::vector<std::uint32_t> bucket_start_;  // [p] = first row with popcount >= p
  std::size_t nrows_ = 0;
  std::size_t words_ = 0;   // word blocks per row
  std::size_t stride_ = 0;  // rows padded to the lane multiple
};

/// Precompiled forbidden rows of one conjunction constraint (see header
/// comment): R_j = ground ∖ M_j, deduplicated and domination-pruned
/// (R' ⊆ R makes R redundant: x ∩ R = ∅ already implies x ∩ R' = ∅).
struct CompiledGroup {
  std::vector<std::uint64_t> rows;  // row-major, row_words words per row
  std::size_t row_words = 0;
  std::size_t count = 0;

  static CompiledGroup complement(const NodeSet& ground, const std::vector<NodeSet>& antichain);
};

/// LIFO stack of conjunction groups with a fused probe kernel. Row storage
/// is row-major with a grow-only stride; at one word per row (every exact
/// decider workload: kMaxExactNodes = 26) that is the degenerate
/// column-block layout the vector kernels consume directly.
class ConjunctionRows {
 public:
  void clear() {
    rows_.clear();
    groups_.clear();
    words_ = 1;
  }

  void reserve(std::size_t groups, std::size_t rows) {
    groups_.reserve(groups);
    rows_.reserve(rows * words_);
  }

  void push_group(const CompiledGroup& g) {
    if (g.row_words == words_) {
      // Matching stride (every exact-decider push): the compiled rows are
      // already in wire format — one range append, no zero-fill pass.
      const auto begin = static_cast<std::uint32_t>(rows_.size() / words_);
      rows_.insert(rows_.end(), g.rows.begin(), g.rows.end());
      groups_.push_back({begin, static_cast<std::uint32_t>(begin + g.count)});
      return;
    }
    push_group_restride(g);
  }

  void pop_group() {
    RMT_REQUIRE(!groups_.empty(), "pop_group on empty ConjunctionRows");
    rows_.resize(static_cast<std::size_t>(groups_.back().begin) * words_);
    groups_.pop_back();
  }

  std::size_t num_groups() const { return groups_.size(); }
  std::size_t num_rows() const { return rows_.size() / words_; }
  std::size_t words_per_row() const { return words_; }

  /// True iff every group has a row disjoint from x — the conjunction
  /// membership ∀i: x ∩ A_i ∈ E_i^{A_i} over the compiled rows.
  bool contains(const NodeSet& x) const {
    if (words_ == 1) {
      const NodeSet::WordSpan xs = x.word_span();
      const std::uint64_t x0 = xs.count != 0 ? xs.words[0] : 0;
      return simd::conjunction_probe_w1(x0, rows_.data(), groups_.data(), groups_.size());
    }
    return contains_wide(x);
  }

 private:
  void push_group_restride(const CompiledGroup& g);
  bool contains_wide(const NodeSet& x) const;

  std::vector<std::uint64_t> rows_;      // row-major, stride words_
  std::vector<simd::RowRange> groups_;
  std::size_t words_ = 1;
};

}  // namespace rmt
