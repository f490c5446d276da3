#include "histcc/cc_seq/union_find.hpp"

namespace histcc::ccseq {

img::LabelImage label_components_unionfind(const img::GreyImage& image,
                                           Connectivity conn,
                                           ColourRule rule) {
  const std::uint32_t rows = image.height();
  const std::uint32_t cols = image.width();
  img::require_labelable(rows, cols);
  img::LabelImage labels(rows, cols);
  if (image.empty()) return labels;

  const auto pixels = image.pixels();
  DisjointSets sets(static_cast<std::size_t>(rows) * cols);
  const bool eight = conn == Connectivity::kEight;
  const bool same_colour = rule == ColourRule::kSameColour;

  // First pass: union each foreground pixel with its already-scanned
  // (west / north-west / north / north-east) like-coloured neighbours.
  for (std::uint32_t i = 0; i < rows; ++i) {
    for (std::uint32_t j = 0; j < cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * cols + j;
      const std::uint8_t colour = pixels[idx];
      if (colour == 0) continue;
      auto try_union = [&](std::size_t nidx) {
        if (pixels[nidx] == 0) return;
        if (same_colour && pixels[nidx] != colour) return;
        sets.unite(static_cast<std::uint32_t>(idx),
                   static_cast<std::uint32_t>(nidx));
      };
      if (j > 0) try_union(idx - 1);                       // west
      if (i > 0) {
        try_union(idx - cols);                             // north
        if (eight) {
          if (j > 0) try_union(idx - cols - 1);            // north-west
          if (j + 1 < cols) try_union(idx - cols + 1);     // north-east
        }
      }
    }
  }

  // Second pass: the root of each set is its minimum pixel index (union by
  // index), so root + 1 is exactly the canonical label.
  auto out = labels.pixels();
  for (std::size_t idx = 0; idx < pixels.size(); ++idx) {
    out[idx] = pixels[idx] == 0
                   ? kBackgroundLabel
                   : sets.find(static_cast<std::uint32_t>(idx)) + 1;
  }
  return labels;
}

}  // namespace histcc::ccseq
