#include "histcc/cc_seq/union_find.hpp"

namespace histcc::ccseq {

img::LabelImage label_components_unionfind(const img::GreyImage& image,
                                           Connectivity conn,
                                           ColourRule rule) {
  img::require_labelable(image.height(), image.width());
  img::LabelImage labels(image.height(), image.width());
  const std::uint32_t width = image.width();
  label_tile(
      image.pixels(), labels.pixels(), image.height(), width, conn, rule,
      [width](std::uint32_t i, std::uint32_t j) { return i * width + j + 1; });
  return labels;
}

}  // namespace histcc::ccseq
