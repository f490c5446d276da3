#ifndef HISTCC_CC_SEQ_UNION_FIND_HPP
#define HISTCC_CC_SEQ_UNION_FIND_HPP

/// \file union_find.hpp
/// The library's production connected-components labeler: a two-pass
/// union-find raster scan over row runs (Rosenfeld-Pfaltz first pass +
/// equivalence resolution, as in Gupta et al.'s two-pass CCL, with runs
/// as the coarse unit of Chen et al.).
///
/// `label_tile` is the reusable core: it labels a rows x cols pixel block
/// and lets the caller choose the label each component's first pixel
/// produces — the parallel algorithm passes the paper's globally unique
/// tile label (I*q + i)*n + (J*r + j) + 1 (Section 5.1), the whole-image
/// wrapper passes row*width + col + 1, which makes its output the
/// canonical labeling of common.hpp.  The paper's own BFS labeler
/// (bfs_label.hpp) is kept apart as the independent test oracle.

#include <cstdint>
#include <span>
#include <vector>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"
#include "histcc/util/require.hpp"

namespace histcc::ccseq {

/// Root of x in the disjoint-set forest `parent`, with path halving.
[[nodiscard]] inline std::uint32_t find_root(std::span<std::uint32_t> parent,
                                             std::uint32_t x) noexcept {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];
    x = parent[x];
  }
  return x;
}

/// Merge the sets of a and b in `parent`; the smaller root index becomes
/// the root, so the root of every set is its minimum member — this is what
/// makes the labelings canonical.
inline void unite_roots(std::span<std::uint32_t> parent, std::uint32_t a,
                        std::uint32_t b) noexcept {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a < b) {
    parent[b] = a;
  } else if (b < a) {
    parent[a] = b;
  }
}

/// Array-based disjoint-set forest with path halving and union by index
/// (smaller index wins), sized for one slot per pixel.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
  }

  /// Root of x's set, with path halving.
  [[nodiscard]] std::uint32_t find(std::uint32_t x) noexcept {
    return find_root(parent_, x);
  }

  /// Root of x's set without path mutation — safe to call concurrently
  /// with other find_const calls (but not with find or unite).
  [[nodiscard]] std::uint32_t find_const(std::uint32_t x) const noexcept {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }

  /// Merge the sets of a and b; the smaller root becomes the root.
  void unite(std::uint32_t a, std::uint32_t b) noexcept {
    unite_roots(parent_, a, b);
  }

  [[nodiscard]] std::size_t size() const noexcept { return parent_.size(); }

 private:
  std::vector<std::uint32_t> parent_;
};

/// The run table of one tile: the state of the two-pass scan that
/// `label_tile` and the parallel algorithm's tile steps share.
///
/// The scan's unit is the row run — a maximal horizontal stretch of
/// like-coloured foreground pixels — rather than the pixel, which is
/// Chen et al.'s coarse-unit cut of the provisional labels of the two-pass
/// scan (PAPERS.md); unlike 2x2 blocks, runs work under both colour rules.
/// Each row's runs come from 64-pixel start and foreground bit masks,
/// built 8 pixels at a time with portable SWAR arithmetic.
///
/// The table stays compact: one uint32 per run (its parent during the
/// scan, its initial label after `resolve`) and one per row (the index of
/// its first run).  Run extents are never stored; every pass re-derives
/// them from the pixels, which must outlive the table.
class TileRuns {
 public:
  // After detach, run_ views own_runs_: a copy would share its buffer.
  TileRuns() = default;
  TileRuns(TileRuns&&) noexcept = default;
  TileRuns& operator=(TileRuns&&) noexcept = default;
  TileRuns(const TileRuns&) = delete;
  TileRuns& operator=(const TileRuns&) = delete;

  /// Pass 1: number the runs of each row in row-major order and link every
  /// run to the like-coloured runs of the row above that touch it — that
  /// share a column, or under 8-connectivity a column one apart — with
  /// union by smaller run index, so every set's root is its first run.
  ///
  /// `storage` lends at least rows*cols words to hold the run entries (a
  /// tile has at most one run per pixel), so the scan allocates nothing
  /// proportional to the tile.  `label_tile` lends the label span it
  /// fills, which `fill` allows: it writes rows last to first, each after
  /// reading its runs, and the runs of rows above row i sit below index
  /// i*cols.  Any other write to the lent span must wait for `detach`.
  void scan(std::span<const std::uint8_t> pixels, std::uint32_t rows,
            std::uint32_t cols, Connectivity conn, ColourRule rule,
            std::span<std::uint32_t> storage);

  /// Pass 2, forward over the table: each root run takes
  /// seed_label(row, start column), every other run its parent's
  /// already-final label.  A root is its component's first run in scan
  /// order, so seed_label runs exactly once per component, in row-major
  /// order of the component's first pixel.
  template <typename LabelFn>
  void resolve(LabelFn&& seed_label) {
    for (std::uint32_t i = 0; i < rows_; ++i) {
      const std::uint32_t first = row_first_[i];
      bool have_starts = false;
      for (std::uint32_t idx = first; idx < row_first_[i + 1]; ++idx) {
        const std::uint32_t up = run_[idx];
        if (up != idx) {
          run_[idx] = run_[up];
          continue;
        }
        if (!have_starts) {  // only rows holding a root need extents
          load_row(i);
          extract_runs();
          have_starts = true;
        }
        run_[idx] = seed_label(i, starts_[idx - first]);
      }
    }
  }

  /// Write rows [first_row, end_row) of the rows x cols `labels`, each
  /// pixel once: a run's pixels get map(its label), background gets 0.
  /// `map` runs once per run.
  template <typename MapFn>
  void fill(std::span<std::uint32_t> labels, std::uint32_t first_row,
            std::uint32_t end_row, MapFn&& map) {
    for (std::uint32_t i = end_row; i-- > first_row;) {  // see scan()
      load_row(i);
      const std::uint32_t first = row_first_[i];
      const std::uint32_t count = row_first_[i + 1] - first;
      for (std::uint32_t c = 0; c < count; ++c) {
        row_labels_[c + 1] = map(run_[first + c]);
      }
      fill_row(labels.data() + static_cast<std::size_t>(i) * cols_);
    }
  }

  /// Copy the table out of the lent storage into a buffer of its own,
  /// sized to the run count, so that the table outlives the lent span or
  /// the span may be written before the table's last fill.  This is the
  /// one allocation of the table, at its final size; call it at most once
  /// per scan.
  void detach();

  /// Write only the tile's boundary pixels — the first and last rows and
  /// the first and last columns — with their labels (0 for background).
  void fill_border(std::span<std::uint32_t> labels);

  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t run_count() const noexcept {
    return row_first_.empty() ? 0 : row_first_.back();
  }

 private:
  /// Start and foreground masks of row i into start_bits_/fg_bits_.
  void load_row(std::uint32_t i);
  /// Start and end columns of the loaded row's runs into starts_/ends_;
  /// returns the run count.
  std::uint32_t extract_runs();
  /// Write the loaded row from the masks and row_labels_.
  void fill_row(std::uint32_t* out) const;

  std::span<const std::uint8_t> pixels_;
  std::uint32_t rows_ = 0;
  std::uint32_t cols_ = 0;
  bool same_colour_ = false;
  std::span<std::uint32_t> run_;          ///< parent, then initial label
  std::vector<std::uint32_t> own_runs_;   ///< run_'s buffer after detach
  std::vector<std::uint32_t> row_first_;  ///< rows + 1 entries
  // One row's scratch, O(cols), reused row after row.
  std::vector<std::uint64_t> start_bits_, fg_bits_;  ///< + a zero sentinel
  std::vector<std::uint32_t> starts_, ends_, prev_starts_, prev_ends_;
  std::vector<std::uint32_t> row_labels_;  ///< [0] = 0, [c + 1] = run c's
};

/// Label the rows x cols block `pixels` (row-major) into `labels`
/// (pre-sized, will be overwritten; background pixels get 0).  The label of
/// each component is seed_label(i, j) evaluated at the component's first
/// pixel in row-major order; seed_label runs exactly once per component,
/// in that order.  Nothing past labels[rows*cols) is written.
///
/// This is the run scan of `TileRuns` followed by one fill of every pixel.
template <typename LabelFn>
void label_tile(std::span<const std::uint8_t> pixels,
                std::span<std::uint32_t> labels, std::uint32_t rows,
                std::uint32_t cols, Connectivity conn, ColourRule rule,
                LabelFn&& seed_label) {
  HISTCC_REQUIRE(labels.size() >= static_cast<std::size_t>(rows) * cols,
                 "tile spans too small");
  TileRuns runs;
  runs.scan(pixels, rows, cols, conn, rule,
            labels.first(static_cast<std::size_t>(rows) * cols));
  runs.resolve(seed_label);
  runs.fill(labels, 0, rows, [](std::uint32_t label) { return label; });
}

/// Label a whole image with the canonical labeling via `label_tile`.
[[nodiscard]] img::LabelImage label_components_unionfind(
    const img::GreyImage& image, Connectivity conn = Connectivity::kEight,
    ColourRule rule = ColourRule::kBinary);

}  // namespace histcc::ccseq

#endif  // HISTCC_CC_SEQ_UNION_FIND_HPP
