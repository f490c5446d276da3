#include "histcc/cc_seq/bfs_label.hpp"

#include <vector>

namespace histcc::ccseq {

img::LabelImage label_components_bfs(const img::GreyImage& image,
                                     Connectivity conn, ColourRule rule) {
  const std::uint32_t rows = image.height();
  const std::uint32_t cols = image.width();
  img::require_labelable(rows, cols);
  img::LabelImage result(rows, cols);
  const auto pixels = image.pixels();
  const auto labels = result.pixels();
  const bool eight = conn == Connectivity::kEight;
  const bool same_colour = rule == ColourRule::kSameColour;
  std::vector<std::uint32_t> queue;

  for (std::uint32_t si = 0; si < rows; ++si) {
    for (std::uint32_t sj = 0; sj < cols; ++sj) {
      const std::size_t seed = static_cast<std::size_t>(si) * cols + sj;
      if (pixels[seed] == 0 || labels[seed] != kBackgroundLabel) continue;

      const auto label = static_cast<std::uint32_t>(seed + 1);
      const std::uint8_t colour = pixels[seed];
      labels[seed] = label;
      queue.clear();
      queue.push_back(static_cast<std::uint32_t>(seed));
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::uint32_t idx = queue[head];
        const std::uint32_t i = idx / cols;
        const std::uint32_t j = idx % cols;
        auto visit = [&](std::uint32_t ni, std::uint32_t nj) {
          const std::size_t nidx = static_cast<std::size_t>(ni) * cols + nj;
          if (pixels[nidx] == 0 || labels[nidx] != kBackgroundLabel) return;
          if (same_colour && pixels[nidx] != colour) return;
          labels[nidx] = label;
          queue.push_back(static_cast<std::uint32_t>(nidx));
        };
        const bool has_n = i > 0;
        const bool has_s = i + 1 < rows;
        const bool has_w = j > 0;
        const bool has_e = j + 1 < cols;
        if (has_n) visit(i - 1, j);
        if (has_s) visit(i + 1, j);
        if (has_w) visit(i, j - 1);
        if (has_e) visit(i, j + 1);
        if (eight) {
          if (has_n && has_w) visit(i - 1, j - 1);
          if (has_n && has_e) visit(i - 1, j + 1);
          if (has_s && has_w) visit(i + 1, j - 1);
          if (has_s && has_e) visit(i + 1, j + 1);
        }
      }
    }
  }
  return result;
}

}  // namespace histcc::ccseq
