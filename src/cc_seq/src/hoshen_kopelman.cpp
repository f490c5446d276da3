#include "histcc/cc_seq/hoshen_kopelman.hpp"

#include <vector>

namespace histcc::ccseq {
namespace {

/// Classic HK label-equivalence array: entry c holds either itself (a
/// proper cluster label) or the smaller cluster it was merged into.
class Equivalences {
 public:
  /// Register a brand-new cluster whose canonical id is `pixel_index`.
  std::uint32_t fresh(std::uint32_t pixel_index) {
    const auto cluster = static_cast<std::uint32_t>(proper_.size());
    proper_.push_back(pixel_index);
    parent_.push_back(cluster);
    return cluster;
  }

  /// Canonical cluster of c, with path compression.
  std::uint32_t find(std::uint32_t c) {
    std::uint32_t root = c;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[c] != root) {
      const std::uint32_t next = parent_[c];
      parent_[c] = root;
      c = next;
    }
    return root;
  }

  /// Merge two clusters; the one with the smaller canonical pixel index
  /// (= canonical label) survives.
  std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return a;
    if (proper_[b] < proper_[a]) std::swap(a, b);
    parent_[b] = a;
    return a;
  }

  /// Minimum pixel index of cluster c's equivalence class.
  [[nodiscard]] std::uint32_t canonical_pixel(std::uint32_t c) {
    return proper_[find(c)];
  }

 private:
  std::vector<std::uint32_t> proper_;  ///< min pixel index per root
  std::vector<std::uint32_t> parent_;
};

}  // namespace

img::LabelImage label_components_hoshen_kopelman(const img::GreyImage& image,
                                                 Connectivity conn,
                                                 ColourRule rule) {
  const std::uint32_t rows = image.height();
  const std::uint32_t cols = image.width();
  img::require_labelable(rows, cols);
  img::LabelImage labels(rows, cols);
  if (image.empty()) return labels;

  const auto px = image.pixels();
  const bool eight = conn == Connectivity::kEight;
  const bool same_colour = rule == ColourRule::kSameColour;

  // cluster[idx] = equivalence-class id of pixel idx (temporary).
  constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint32_t> cluster(px.size(), kNone);
  Equivalences eq;

  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * cols + j;
      const std::uint8_t colour = px[idx];
      if (colour == 0) continue;

      std::uint32_t mine = kNone;
      auto absorb = [&](std::size_t nidx) {
        if (px[nidx] == 0) return;
        if (same_colour && px[nidx] != colour) return;
        const std::uint32_t theirs = cluster[nidx];
        mine = mine == kNone ? eq.find(theirs) : eq.unite(mine, theirs);
      };
      if (j > 0) absorb(idx - 1);              // west
      if (i > 0) {
        absorb(idx - cols);                    // north
        if (eight) {
          if (j > 0) absorb(idx - cols - 1);   // north-west
          if (j + 1 < cols) absorb(idx - cols + 1);  // north-east
        }
      }
      if (mine == kNone) {
        mine = eq.fresh(static_cast<std::uint32_t>(idx));
      }
      cluster[idx] = mine;
    }
  }

  // Second pass: resolve each pixel's class to its canonical label.
  auto out = labels.pixels();
  for (std::size_t idx = 0; idx < px.size(); ++idx) {
    out[idx] = px[idx] == 0 ? kBackgroundLabel
                            : eq.canonical_pixel(cluster[idx]) + 1;
  }
  return labels;
}

}  // namespace histcc::ccseq
