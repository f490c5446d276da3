#include "histcc/cc_seq/bfs_label.hpp"

namespace histcc::ccseq {

img::LabelImage label_components_bfs(const img::GreyImage& image,
                                     Connectivity conn, ColourRule rule) {
  img::require_labelable(image.height(), image.width());
  img::LabelImage labels(image.height(), image.width());
  if (image.empty()) return labels;
  BfsScratch scratch;
  const std::uint32_t width = image.width();
  label_tile(
      image.pixels(), labels.pixels(), image.height(), width, conn, rule,
      [width](std::uint32_t i, std::uint32_t j) { return i * width + j + 1; },
      scratch);
  return labels;
}

}  // namespace histcc::ccseq
