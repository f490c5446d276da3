// Tests for tile hooks (Procedure 2, Figure 5), border-only updating, and
// the final interior relabeling — the paper's core novelty.
#include <gtest/gtest.h>

#include "histcc/cc/hooks.hpp"
#include "histcc/cc_seq/union_find.hpp"

namespace cc = histcc::cc;
namespace cs = histcc::ccseq;

namespace {

/// Label a rows x cols tile with labels = row-major seed index + 1.
std::vector<std::uint32_t> label(const std::vector<std::uint8_t>& px,
                                 std::uint32_t rows, std::uint32_t cols,
                                 cs::Connectivity conn = cs::Connectivity::kEight) {
  std::vector<std::uint32_t> lb(px.size());
  cs::label_tile(
      px, lb, rows, cols, conn, cs::ColourRule::kBinary,
      [cols](std::uint32_t i, std::uint32_t j) { return i * cols + j + 1; });
  return lb;
}

}  // namespace

TEST(BorderOffsetsTest, CountsAndUniqueness) {
  const auto offsets = cc::tile_border_offsets(4, 6);
  EXPECT_EQ(offsets.size(), 2u * (4 + 6) - 4);
  std::set<std::uint32_t> unique(offsets.begin(), offsets.end());
  EXPECT_EQ(unique.size(), offsets.size());
  for (const auto off : offsets) {
    const auto i = off / 6;
    const auto j = off % 6;
    EXPECT_TRUE(i == 0 || i == 3 || j == 0 || j == 5) << off;
  }
}

TEST(BorderOffsetsTest, DegenerateTiles) {
  EXPECT_EQ(cc::tile_border_offsets(1, 5).size(), 5u);
  EXPECT_EQ(cc::tile_border_offsets(5, 1).size(), 5u);
  EXPECT_EQ(cc::tile_border_offsets(1, 1).size(), 1u);
  EXPECT_EQ(cc::tile_border_offsets(2, 2).size(), 4u);
}

TEST(TileHooksTest, OneHookPerBorderComponent) {
  // 4x4 tile: component A occupies the top row, component B the bottom
  // row; a third component sits strictly inside no tile this small, so add
  // a bigger example below.
  const std::vector<std::uint8_t> px{1, 1, 1, 1,  //
                                     0, 0, 0, 0,  //
                                     0, 0, 0, 0,  //
                                     1, 1, 1, 1};
  const auto lb = label(px, 4, 4);
  const auto offsets = cc::tile_border_offsets(4, 4);
  const auto hooks = cc::make_tile_hooks(px, lb, offsets);
  ASSERT_EQ(hooks.size(), 2u);
  EXPECT_EQ(hooks[0].label, 1u);   // top row, seed (0,0)
  EXPECT_EQ(hooks[1].label, 13u);  // bottom row, seed (3,0)
  // Hook offsets point at border pixels of the right component.
  EXPECT_EQ(lb[hooks[0].offset], 1u);
  EXPECT_EQ(lb[hooks[1].offset], 13u);
}

TEST(TileHooksTest, InteriorComponentsGetNoHook) {
  // 5x5 tile with an isolated centre pixel: it touches no border.
  std::vector<std::uint8_t> px(25, 0);
  px[12] = 1;        // centre (2,2)
  px[0] = 1;         // corner component
  const auto lb = label(px, 5, 5);
  const auto hooks =
      cc::make_tile_hooks(px, lb, cc::tile_border_offsets(5, 5));
  ASSERT_EQ(hooks.size(), 1u);
  EXPECT_EQ(hooks[0].label, 1u);
}

TEST(TileHooksTest, HooksAreSortedByLabel) {
  std::vector<std::uint8_t> px(64, 0);
  // Components at the four corners of an 8x8 tile.
  px[0] = px[7] = px[56] = px[63] = 1;
  const auto lb = label(px, 8, 8);
  const auto hooks =
      cc::make_tile_hooks(px, lb, cc::tile_border_offsets(8, 8));
  ASSERT_EQ(hooks.size(), 4u);
  for (std::size_t i = 1; i < hooks.size(); ++i) {
    EXPECT_LT(hooks[i - 1].label, hooks[i].label);
  }
}

TEST(UpdateBordersTest, OnlyBorderPixelsChange) {
  // 4x4 all-foreground tile, single component labeled 1 everywhere.
  std::vector<std::uint8_t> px(16, 1);
  auto lb = label(px, 4, 4);
  const std::vector<cc::ChangePair> changes{{1, 42}};
  cc::update_border_labels(lb, px, cc::tile_border_offsets(4, 4), changes);
  // Border pixels now 42; the four interior pixels still 1.
  EXPECT_EQ(lb[0], 42u);
  EXPECT_EQ(lb[3], 42u);
  EXPECT_EQ(lb[12], 42u);
  EXPECT_EQ(lb[5], 1u);
  EXPECT_EQ(lb[6], 1u);
  EXPECT_EQ(lb[9], 1u);
  EXPECT_EQ(lb[10], 1u);
}

TEST(UpdateBordersTest, BackgroundAndUnlistedLabelsUntouched) {
  std::vector<std::uint8_t> px{1, 0, 1, 1};
  std::vector<std::uint32_t> lb{5, 0, 9, 9};
  const std::vector<cc::ChangePair> changes{{5, 2}};
  cc::update_border_labels(lb, px, cc::tile_border_offsets(2, 2), changes);
  EXPECT_EQ(lb, (std::vector<std::uint32_t>{2, 0, 9, 9}));
}

TEST(UpdateAllTest, EveryPixelChanges) {
  std::vector<std::uint8_t> px(16, 1);
  auto lb = label(px, 4, 4);
  const std::vector<cc::ChangePair> changes{{1, 42}};
  cc::update_all_labels(lb, px, changes);
  for (const auto l : lb) EXPECT_EQ(l, 42u);
}

TEST(RelabelInteriorTest, StaleInteriorIsFixed) {
  // All-foreground 4x4 tile: labels 1; border updated to 42; the final
  // pass must pull the interior to 42 via the hook.
  std::vector<std::uint8_t> px(16, 1);
  auto lb = label(px, 4, 4);
  const auto hooks = cc::make_tile_hooks(px, lb, cc::tile_border_offsets(4, 4));
  cc::update_border_labels(lb, px, cc::tile_border_offsets(4, 4),
                           {{cc::ChangePair{1, 42}}});
  cc::relabel_interior(lb, px, hooks);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(lb[i], 42u) << i;
}

TEST(RelabelInteriorTest, UnchangedComponentsAreSkipped) {
  std::vector<std::uint8_t> px(16, 1);
  auto lb = label(px, 4, 4);
  const auto hooks = cc::make_tile_hooks(px, lb, cc::tile_border_offsets(4, 4));
  cc::relabel_interior(lb, px, hooks);
  for (const auto l : lb) EXPECT_EQ(l, 1u);
}

TEST(RelabelInteriorTest, MultipleComponentsIndependently) {
  // Two components: top row (label 1) and bottom row (label 13); only the
  // bottom one was merged away.
  std::vector<std::uint8_t> px{1, 1, 1, 1,  //
                               0, 0, 0, 0,  //
                               1, 1, 1, 1,  //
                               1, 1, 1, 1};
  auto lb = label(px, 4, 4);
  const auto hooks = cc::make_tile_hooks(px, lb, cc::tile_border_offsets(4, 4));
  cc::update_border_labels(lb, px, cc::tile_border_offsets(4, 4),
                           {{cc::ChangePair{9, 3}}});
  cc::relabel_interior(lb, px, hooks);
  for (std::uint32_t j = 0; j < 4; ++j) {
    EXPECT_EQ(lb[j], 1u);
    EXPECT_EQ(lb[8 + j], 3u);
    EXPECT_EQ(lb[12 + j], 3u);
  }
}

TEST(RelabelInteriorTest, UShapedComponentFullyRelabeled) {
  // A U-shape whose interior pixels connect only through border pixels:
  // the change table from the single hook must reach every stale pixel,
  // however it is connected, while the already-updated border pixels keep
  // their final label.
  std::vector<std::uint8_t> px{1, 0, 0, 1,  //
                               1, 0, 0, 1,  //
                               1, 0, 0, 1,  //
                               1, 1, 1, 1};
  auto lb = label(px, 4, 4);
  // One component (seed (0,0) -> label 1).
  for (std::size_t i = 0; i < px.size(); ++i) {
    if (px[i]) {
      ASSERT_EQ(lb[i], 1u);
    }
  }
  const auto hooks = cc::make_tile_hooks(px, lb, cc::tile_border_offsets(4, 4));
  ASSERT_EQ(hooks.size(), 1u);
  cc::update_border_labels(lb, px, cc::tile_border_offsets(4, 4),
                           {{cc::ChangePair{1, 77}}});
  cc::relabel_interior(lb, px, hooks);
  for (std::size_t i = 0; i < px.size(); ++i) {
    if (px[i]) {
      EXPECT_EQ(lb[i], 77u) << i;
    }
  }
}

TEST(RelabelInteriorTest, FourConnectivityRespected) {
  // Diagonal-only pair: under 4-connectivity they are separate components
  // with separate hooks; relabeling one must not leak into the other.
  std::vector<std::uint8_t> px{1, 0,  //
                               0, 1};
  auto lb = label(px, 2, 2, cs::Connectivity::kFour);
  ASSERT_EQ(lb[0], 1u);
  ASSERT_EQ(lb[3], 4u);
  const auto hooks = cc::make_tile_hooks(px, lb, cc::tile_border_offsets(2, 2));
  cc::update_border_labels(lb, px, cc::tile_border_offsets(2, 2),
                           {{cc::ChangePair{1, 99}}});
  cc::relabel_interior(lb, px, hooks);
  EXPECT_EQ(lb[0], 99u);
  EXPECT_EQ(lb[3], 4u);
}
