// Test images whose row runs sit where a run-based labeler can go wrong:
// at a tile's first and last column, on and across 64-pixel mask words,
// and packed as densely as runs get.  Shared by test_cc_seq.cpp (one
// tile at a time), test_cc_parallel.cpp (whole images on the VM) and
// test_omp.cpp (whole images cut into OpenMP row strips).
#ifndef HISTCC_TESTS_RUN_IMAGES_HPP
#define HISTCC_TESTS_RUN_IMAGES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "histcc/image/image.hpp"
#include "histcc/util/rng.hpp"

namespace histcc::testing {

/// Tile widths around the 64-pixel words of the run masks.
inline constexpr std::uint32_t kRunTileWidths[] = {1,   2,   7,   63,  64,
                                                   65,  127, 128, 129, 200};

struct NamedImage {
  std::string name;
  img::GreyImage image;
};

/// rows x cols images built from each pixel's column within its tile,
/// jj = j % tile_cols, so every tile of width tile_cols sees the pattern
/// at the same local columns.
inline std::vector<NamedImage> run_boundary_images(std::uint32_t rows,
                                                   std::uint32_t cols,
                                                   std::uint32_t tile_cols) {
  const auto make = [&](auto colour_at) {
    img::GreyImage image(rows, cols);
    for (std::uint32_t i = 0; i < rows; ++i) {
      for (std::uint32_t j = 0; j < cols; ++j) {
        image(i, j) = static_cast<std::uint8_t>(colour_at(i, j % tile_cols));
      }
    }
    return image;
  };
  const std::uint32_t last = tile_cols - 1;
  std::vector<NamedImage> images;
  images.push_back({"all_foreground", make([](auto, auto) { return 1; })});
  // The most runs, joined only by diagonals under 8-connectivity.
  images.push_back({"checkerboard", make([](std::uint32_t i, std::uint32_t jj) {
                      return (i + jj) % 2 == 0 ? 1 : 0;
                    })});
  // Touching vertical stripes of three colours: one run per row under the
  // binary rule, one per pixel under the same-colour rule.
  images.push_back({"stripes", make([](std::uint32_t, std::uint32_t jj) {
                      return 1 + jj % 3;
                    })});
  // Two colours that meet exactly on the 64-pixel word boundaries.
  images.push_back({"word_colours", make([](std::uint32_t, std::uint32_t jj) {
                      return 1 + (jj / 64) % 2;
                    })});
  // Single-pixel runs in the tile's first and last columns only.
  images.push_back(
      {"edge_pixels", make([last](std::uint32_t i, std::uint32_t jj) {
         return (jj == 0 && i % 2 == 0) || (jj == last && i % 3 != 2) ? 1
                                                                      : 0;
       })});
  // Runs of 50 with gaps of 21, shifted 5 columns per row, so they start
  // and end on every side of the word boundaries; two alternating colours.
  images.push_back(
      {"word_crossing", make([](std::uint32_t i, std::uint32_t jj) {
         const std::uint32_t k = jj + 5 * i;
         return k % 71 < 50 ? 1 + (k / 71) % 2 : 0;
       })});
  util::Rng rng(rows * 7919 + cols * 31 + tile_cols);
  images.push_back({"random3", make([&rng](auto, auto) {
                      return static_cast<int>(rng.next_below(3));
                    })});
  return images;
}

}  // namespace histcc::testing

#endif  // HISTCC_TESTS_RUN_IMAGES_HPP
