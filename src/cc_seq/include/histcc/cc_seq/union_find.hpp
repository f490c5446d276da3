#ifndef HISTCC_CC_SEQ_UNION_FIND_HPP
#define HISTCC_CC_SEQ_UNION_FIND_HPP

/// \file union_find.hpp
/// The library's production connected-components labeler: a two-pass
/// union-find raster scan (Rosenfeld-Pfaltz first pass + equivalence
/// resolution, in the decision-tree form of Wu et al. that Gupta et al.'s
/// two-pass CCL builds on).
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

/// Label the rows x cols block `pixels` (row-major) into `labels`
/// (pre-sized, will be overwritten; background pixels get 0).  The label of
/// each component is seed_label(i, j) evaluated at the component's first
/// pixel in row-major order; seed_label runs exactly once per component,
/// in that order.  Nothing past labels[rows*cols) is written.
///
/// Pass 1 links each foreground pixel to its already-scanned like-coloured
/// W/NW/N/NE neighbours, keeping the forest's parent pointers in `labels`
/// itself (union by smaller index, so every parent precedes its child in
/// scan order).  Pass 2 runs forward: a root takes seed_label, every other
/// pixel copies its parent's — already final — label.
template <typename LabelFn>
void label_tile(std::span<const std::uint8_t> pixels,
                std::span<std::uint32_t> labels, std::uint32_t rows,
                std::uint32_t cols, Connectivity conn, ColourRule rule,
                LabelFn&& seed_label) {
  img::require_labelable(rows, cols);  // parents are 32-bit pixel indices
  const std::size_t count = static_cast<std::size_t>(rows) * cols;
  HISTCC_REQUIRE(pixels.size() >= count && labels.size() >= count,
                 "tile spans too small");
  const auto parent = labels.first(count);
  const bool eight = conn == Connectivity::kEight;
  const bool same_colour = rule == ColourRule::kSameColour;

  std::uint32_t idx = 0;
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j, ++idx) {
      const std::uint8_t colour = pixels[idx];
      if (colour == 0) {
        parent[idx] = kBackgroundLabel;
        continue;
      }
      auto like = [&](std::uint32_t nidx) {
        return pixels[nidx] != 0 && (!same_colour || pixels[nidx] == colour);
      };
      const bool n = i > 0 && like(idx - cols);
      const bool w = j > 0 && like(idx - 1);
      if (!eight) {
        parent[idx] = w ? parent[idx - 1] : n ? parent[idx - cols] : idx;
        if (w && n) unite_roots(parent, idx, idx - cols);
        continue;
      }
      // 8-connectivity decision tree: N is adjacent to W, NW and NE, so a
      // like-coloured N already shares their set; W and NW are adjacent,
      // so only NE can still need a union.
      if (n) {
        parent[idx] = parent[idx - cols];
        continue;
      }
      const bool nw = i > 0 && j > 0 && like(idx - cols - 1);
      const bool ne = i > 0 && j + 1 < cols && like(idx - cols + 1);
      parent[idx] = w ? parent[idx - 1]
                  : nw ? parent[idx - cols - 1]
                  : ne ? parent[idx - cols + 1]
                       : idx;
      if (ne && (w || nw)) unite_roots(parent, idx, idx - cols + 1);
    }
  }

  idx = 0;
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j, ++idx) {
      if (pixels[idx] == 0) continue;
      const std::uint32_t up = parent[idx];
      labels[idx] = up == idx ? seed_label(i, j) : labels[up];
    }
  }
}

/// Label a whole image with the canonical labeling via `label_tile`.
[[nodiscard]] img::LabelImage label_components_unionfind(
    const img::GreyImage& image, Connectivity conn = Connectivity::kEight,
    ColourRule rule = ColourRule::kBinary);

}  // namespace histcc::ccseq

#endif  // HISTCC_CC_SEQ_UNION_FIND_HPP
