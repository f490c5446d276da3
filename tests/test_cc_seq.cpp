// Tests for the sequential labelers (Section 5.1 BFS and the union-find
// baseline): known tiny cases, connectivity/colour-rule semantics, the
// canonical labeling property, and cross-validation of the two labelers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "histcc/cc_seq/analysis.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/hoshen_kopelman.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/util/rng.hpp"
#include "run_images.hpp"

namespace cs = histcc::ccseq;
namespace im = histcc::img;

namespace {

im::GreyImage from_rows(const std::vector<std::vector<int>>& rows) {
  im::GreyImage image(static_cast<std::uint32_t>(rows.size()),
                      static_cast<std::uint32_t>(rows[0].size()));
  for (std::uint32_t i = 0; i < image.height(); ++i) {
    for (std::uint32_t j = 0; j < image.width(); ++j) {
      image(i, j) = static_cast<std::uint8_t>(rows[i][j]);
    }
  }
  return image;
}

}  // namespace

TEST(BfsLabelTest, EmptyImageAllBackground) {
  const im::GreyImage image(4, 4, 0);
  const auto labels = cs::label_components_bfs(image);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 0u);
}

TEST(BfsLabelTest, SingleComponentGetsSeedLabel) {
  const im::GreyImage image(3, 3, 1);
  const auto labels = cs::label_components_bfs(image);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 1u);  // seed at (0,0)
}

TEST(BfsLabelTest, CanonicalLabelsAreMinIndexPlusOne) {
  const auto image = from_rows({{1, 0, 1},   //
                                {0, 0, 0},   //
                                {1, 0, 1}});
  const auto labels = cs::label_components_bfs(image, cs::Connectivity::kFour);
  EXPECT_EQ(labels(0, 0), 1u);  // index 0
  EXPECT_EQ(labels(0, 2), 3u);  // index 2
  EXPECT_EQ(labels(2, 0), 7u);  // index 6
  EXPECT_EQ(labels(2, 2), 9u);  // index 8
  EXPECT_EQ(cs::count_components(labels), 4u);
}

TEST(BfsLabelTest, DiagonalConnectivityDiffers) {
  const auto image = from_rows({{1, 0},  //
                                {0, 1}});
  const auto four = cs::label_components_bfs(image, cs::Connectivity::kFour);
  const auto eight = cs::label_components_bfs(image, cs::Connectivity::kEight);
  EXPECT_EQ(cs::count_components(four), 2u);
  EXPECT_EQ(cs::count_components(eight), 1u);
  EXPECT_EQ(eight(1, 1), eight(0, 0));
}

TEST(BfsLabelTest, ColourRuleSeparatesGreyLevels) {
  const auto image = from_rows({{1, 2},  //
                                {2, 1}});
  const auto binary = cs::label_components_bfs(image, cs::Connectivity::kEight,
                                               cs::ColourRule::kBinary);
  const auto grey = cs::label_components_bfs(image, cs::Connectivity::kEight,
                                             cs::ColourRule::kSameColour);
  EXPECT_EQ(cs::count_components(binary), 1u);
  EXPECT_EQ(cs::count_components(grey), 2u);
  EXPECT_EQ(grey(0, 0), grey(1, 1));
  EXPECT_EQ(grey(0, 1), grey(1, 0));
  EXPECT_NE(grey(0, 0), grey(0, 1));
}

TEST(BfsLabelTest, SnakeComponentIsOne) {
  const auto image = from_rows({{1, 1, 1, 1, 1},
                                {0, 0, 0, 0, 1},
                                {1, 1, 1, 1, 1},
                                {1, 0, 0, 0, 0},
                                {1, 1, 1, 1, 1}});
  const auto labels = cs::label_components_bfs(image, cs::Connectivity::kFour);
  EXPECT_EQ(cs::count_components(labels), 1u);
}

TEST(UnionFindTest, MatchesBfsExactlyOnPatterns) {
  for (int id = 1; id <= im::kNumTestPatterns; ++id) {
    const auto image =
        im::make_test_pattern(static_cast<im::TestPattern>(id), 64);
    for (const auto conn :
         {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
      const auto bfs = cs::label_components_bfs(image, conn);
      const auto uf = cs::label_components_unionfind(image, conn);
      EXPECT_EQ(bfs, uf) << "pattern " << id << " conn "
                         << static_cast<int>(conn);
    }
  }
}

TEST(UnionFindTest, MatchesBfsOnGreyImages) {
  const auto image = im::make_darpa_like(96, 11);
  for (const auto conn : {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
    const auto bfs = cs::label_components_bfs(image, conn,
                                              cs::ColourRule::kSameColour);
    const auto uf = cs::label_components_unionfind(
        image, conn, cs::ColourRule::kSameColour);
    EXPECT_EQ(bfs, uf);
  }
}

TEST(UnionFindTest, MatchesBfsOnPercolation) {
  for (const double occ : {0.2, 0.4, 0.592746, 0.8}) {
    const auto image = im::make_percolation(80, occ, 21);
    const auto bfs = cs::label_components_bfs(image);
    const auto uf = cs::label_components_unionfind(image);
    EXPECT_EQ(bfs, uf) << "occupancy " << occ;
  }
}

TEST(DisjointSetsTest, RootIsMinimumMember) {
  cs::DisjointSets sets(10);
  sets.unite(3, 7);
  sets.unite(7, 5);
  sets.unite(9, 3);
  EXPECT_EQ(sets.find(7), 3u);
  EXPECT_EQ(sets.find(5), 3u);
  EXPECT_EQ(sets.find(9), 3u);
  EXPECT_EQ(sets.find(0), 0u);
  sets.unite(5, 1);
  EXPECT_EQ(sets.find(9), 1u);
}

namespace {

/// Pixels of processor `rank`'s tile of `image`, row-major.
std::vector<std::uint8_t> tile_pixels(const im::GreyImage& image,
                                      const im::TileLayout& layout,
                                      std::uint32_t rank) {
  std::vector<std::uint8_t> px;
  for (std::uint32_t i = 0; i < layout.tile_rows(rank); ++i) {
    for (std::uint32_t j = 0; j < layout.tile_cols(rank); ++j) {
      px.push_back(
          image(layout.global_row(rank, i), layout.global_col(rank, j)));
    }
  }
  return px;
}

/// A rows x cols image with grey levels 0..levels-1 (0 = background).
im::GreyImage random_image(std::uint32_t rows, std::uint32_t cols,
                           std::uint32_t levels, std::uint64_t seed) {
  histcc::util::Rng rng(seed);
  im::GreyImage image(rows, cols);
  for (auto& px : image.pixels()) {
    px = static_cast<std::uint8_t>(rng.next_below(levels));
  }
  return image;
}

}  // namespace

TEST(LabelTileTest, SeedLabelRunsOncePerComponentInScanOrder) {
  // A U whose arms meet only on the last row, beside a later component:
  // the scan sees the right arm as a separate root until the bottom row.
  const auto image = from_rows({{1, 0, 1, 0, 1},  //
                                {1, 0, 1, 0, 0},  //
                                {1, 1, 1, 0, 1}});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> calls;
  std::vector<std::uint32_t> labels(image.size());
  cs::label_tile(image.pixels(), labels, 3, 5, cs::Connectivity::kFour,
                 cs::ColourRule::kBinary,
                 [&](std::uint32_t i, std::uint32_t j) {
                   calls.emplace_back(i, j);
                   return static_cast<std::uint32_t>(100 + calls.size());
                 });
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want{
      {0, 0}, {0, 4}, {2, 4}};
  EXPECT_EQ(calls, want);
  EXPECT_EQ(labels, (std::vector<std::uint32_t>{101, 0, 101, 0, 102,  //
                                                101, 0, 101, 0, 0,    //
                                                101, 101, 101, 0, 103}));
}

TEST(LabelTileTest, NothingPastTheTileIsWritten) {
  constexpr std::uint32_t kSentinel = 0xDEADBEEFu;
  const auto image = random_image(7, 9, 3, 5);
  std::vector<std::uint8_t> px(image.pixels().begin(), image.pixels().end());
  px.resize(px.size() + 4, 1);  // foreground beyond the tile is ignored
  std::vector<std::uint32_t> labels(image.size() + 4, kSentinel);
  cs::label_tile(px, labels, 7, 9, cs::Connectivity::kEight,
                 cs::ColourRule::kSameColour,
                 [](std::uint32_t i, std::uint32_t j) {
                   return i * 9 + j + 1;
                 });
  for (std::size_t k = image.size(); k < labels.size(); ++k) {
    EXPECT_EQ(labels[k], kSentinel) << k;
  }
  labels.resize(image.size());
  const auto bfs = cs::label_components_bfs(image, cs::Connectivity::kEight,
                                            cs::ColourRule::kSameColour);
  EXPECT_EQ(labels, std::vector<std::uint32_t>(bfs.pixels().begin(),
                                               bfs.pixels().end()));
}

namespace {

/// Label every tile of `image` under `layout` with label_tile, seeded
/// with the parallel algorithm's initial labels.  Each component's label
/// must be initial_label at its first pixel, which BFS on the tile alone
/// names as canonical label - 1 (Hoshen-Kopelman must agree with BFS),
/// and seed_label must run once per component, in scan order.
void expect_tiles_match_oracles(const im::GreyImage& image,
                                const im::TileLayout& layout,
                                cs::Connectivity conn, cs::ColourRule rule,
                                const std::string& what) {
  for (std::uint32_t rank = 0; rank < layout.nprocs(); ++rank) {
    const std::uint32_t q = layout.tile_rows(rank);
    const std::uint32_t r = layout.tile_cols(rank);
    const auto px = tile_pixels(image, layout, rank);
    std::vector<std::uint32_t> got(px.size());
    std::vector<std::uint32_t> seeds;  // canonical labels, call order
    cs::label_tile(px, got, q, r, conn, rule,
                   [&](std::uint32_t i, std::uint32_t j) {
                     seeds.push_back(i * r + j + 1);
                     return layout.initial_label(rank, i, j);
                   });
    if (px.empty()) continue;
    im::GreyImage tile(q, r);
    std::copy(px.begin(), px.end(), tile.pixels().begin());
    const auto bfs = cs::label_components_bfs(tile, conn, rule);
    ASSERT_EQ(cs::label_components_hoshen_kopelman(tile, conn, rule), bfs)
        << what << " rank " << rank;
    std::vector<std::uint32_t> want_seeds(bfs.pixels().begin(),
                                          bfs.pixels().end());
    std::sort(want_seeds.begin(), want_seeds.end());
    want_seeds.erase(std::unique(want_seeds.begin(), want_seeds.end()),
                     want_seeds.end());
    if (want_seeds.front() == 0) want_seeds.erase(want_seeds.begin());
    ASSERT_EQ(seeds, want_seeds) << what << " rank " << rank;
    for (std::size_t k = 0; k < px.size(); ++k) {
      const std::uint32_t b = bfs.pixels()[k];
      const std::uint32_t want =
          b == 0 ? 0 : layout.initial_label(rank, (b - 1) / r, (b - 1) % r);
      ASSERT_EQ(got[k], want) << what << " rank " << rank << " pixel " << k;
    }
  }
}

constexpr cs::Connectivity kConns[] = {cs::Connectivity::kFour,
                                       cs::Connectivity::kEight};
constexpr cs::ColourRule kRules[] = {cs::ColourRule::kBinary,
                                     cs::ColourRule::kSameColour};

}  // namespace

TEST(LabelTileTest, MatchesBfsOnRaggedTilesWithInitialLabels) {
  // Ragged layouts (edge tiles shrink, some to nothing).
  const std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>>
      shapes{{37, 53, 8}, {5, 61, 16}, {61, 5, 4}, {33, 33, 16}};
  for (const auto& [h, w, p] : shapes) {
    const im::TileLayout layout(h, w, p);
    for (const auto rule : kRules) {
      const std::uint32_t levels = rule == cs::ColourRule::kBinary ? 2 : 4;
      const auto image = random_image(h, w, levels, h * 1000 + w + levels);
      for (const auto conn : kConns) {
        expect_tiles_match_oracles(
            image, layout, conn, rule,
            std::to_string(h) + "x" + std::to_string(w) + " p=" +
                std::to_string(p));
      }
    }
  }
}

TEST(LabelTileTest, RunBoundariesMatchOracles) {
  // 2x2 tiles of exactly each width around the 64-pixel mask words, with
  // runs at the tile's first and last columns, on and across the word
  // boundaries, and as dense as they get.
  constexpr std::uint32_t kTileRows = 5;
  for (const std::uint32_t width : histcc::testing::kRunTileWidths) {
    const im::TileLayout layout(2 * kTileRows, 2 * width, 4);
    ASSERT_EQ(layout.tile_cols(3), width);
    for (const auto& [name, image] : histcc::testing::run_boundary_images(
             2 * kTileRows, 2 * width, width)) {
      for (const auto rule : kRules) {
        for (const auto conn : kConns) {
          expect_tiles_match_oracles(
              image, layout, conn, rule,
              name + " width " + std::to_string(width) + " conn " +
                  std::to_string(static_cast<int>(conn)) + " rule " +
                  std::to_string(static_cast<int>(rule)));
        }
      }
    }
  }
}

TEST(TileRunsTest, BorderFillWritesOnlyTheBoundary) {
  constexpr std::uint32_t kSentinel = 0xDEADBEEFu;
  const std::uint32_t rows = 9;
  const std::uint32_t cols = 70;
  const auto image = random_image(rows, cols, 3, 17);
  for (const auto rule : kRules) {
    for (const auto conn : kConns) {
      cs::TileRuns runs;
      std::vector<std::uint32_t> scratch(image.size());
      runs.scan(image.pixels(), rows, cols, conn, rule, scratch);
      runs.resolve(
          [](std::uint32_t i, std::uint32_t j) { return i * cols + j + 1; });
      std::vector<std::uint32_t> got(image.size(), kSentinel);
      runs.fill_border(got);
      const auto bfs = cs::label_components_bfs(image, conn, rule);
      for (std::uint32_t i = 0; i < rows; ++i) {
        for (std::uint32_t j = 0; j < cols; ++j) {
          const bool border = i == 0 || i == rows - 1 || j == 0 || j == cols - 1;
          EXPECT_EQ(got[i * cols + j], border ? bfs(i, j) : kSentinel)
              << i << "," << j;
        }
      }
    }
  }
}

TEST(TileRunsTest, FillMapsEachRunOnce) {
  const std::uint32_t rows = 6;
  const std::uint32_t cols = 131;
  const auto image = random_image(rows, cols, 4, 23);
  cs::TileRuns runs;
  std::vector<std::uint32_t> scratch(image.size());
  runs.scan(image.pixels(), rows, cols, cs::Connectivity::kEight,
            cs::ColourRule::kSameColour, scratch);
  runs.resolve(
      [](std::uint32_t i, std::uint32_t j) { return i * cols + j + 1; });
  std::size_t calls = 0;
  std::vector<std::uint32_t> got(image.size());
  runs.fill(got, 0, rows, [&](std::uint32_t label) {
    ++calls;
    return label + 1000;
  });
  EXPECT_EQ(calls, runs.run_count());
  const auto bfs = cs::label_components_bfs(image, cs::Connectivity::kEight,
                                            cs::ColourRule::kSameColour);
  for (std::size_t k = 0; k < got.size(); ++k) {
    const std::uint32_t b = bfs.pixels()[k];
    EXPECT_EQ(got[k], b == 0 ? 0 : b + 1000) << k;
  }
}

TEST(AnalysisTest, ComponentSizesSorted) {
  const auto image = from_rows({{1, 1, 0, 1},  //
                                {1, 0, 0, 0},  //
                                {0, 0, 0, 0}});
  const auto labels = cs::label_components_bfs(image, cs::Connectivity::kFour);
  const auto sizes = cs::component_sizes(labels);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0].pixels, 3u);
  EXPECT_EQ(sizes[1].pixels, 1u);
  EXPECT_EQ(sizes[1].label, 4u);  // the singleton at index 3
}

TEST(AnalysisTest, PartitionsEqualDetectsMismatch) {
  const auto image = from_rows({{1, 0, 1}});
  auto a = cs::label_components_bfs(image);
  auto b = a;
  EXPECT_TRUE(cs::partitions_equal(a, b));
  // Renaming labels consistently keeps partitions equal.
  for (auto& l : b.pixels()) {
    if (l != 0) l += 100;
  }
  EXPECT_TRUE(cs::partitions_equal(a, b));
  // Merging two labels into one breaks it.
  auto c = a;
  c(0, 2) = c(0, 0);
  EXPECT_FALSE(cs::partitions_equal(a, c));
  // And so does disagreeing about background.
  auto d = a;
  d(0, 1) = 99;
  EXPECT_FALSE(cs::partitions_equal(a, d));
}

TEST(AnalysisTest, IsValidLabelingAcceptsAndRejects) {
  const auto image = im::make_test_pattern(im::TestPattern::kFourSquares, 64);
  auto labels = cs::label_components_bfs(image);
  EXPECT_TRUE(cs::is_valid_labeling(image, labels, cs::Connectivity::kEight,
                                    cs::ColourRule::kBinary));
  labels(8, 8) = 77777;  // breaks component constancy
  EXPECT_FALSE(cs::is_valid_labeling(image, labels, cs::Connectivity::kEight,
                                     cs::ColourRule::kBinary));
}

TEST(AnalysisTest, RelabelConsecutive) {
  const auto image = from_rows({{1, 0, 1, 0, 1}});
  auto labels = cs::label_components_bfs(image);
  const auto count = cs::relabel_consecutive(labels);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(labels(0, 0), 1u);
  EXPECT_EQ(labels(0, 2), 2u);
  EXPECT_EQ(labels(0, 4), 3u);
}

// Known component counts for the catalog patterns at n = 64 are locked in
// as regression anchors (stripe width 4 at n = 64).
TEST(CatalogComponents, HorizontalBarsCount) {
  const auto image =
      im::make_test_pattern(im::TestPattern::kHorizontalBars, 64);
  const auto labels = cs::label_components_bfs(image);
  // Bars at i/4 even: 8 stripes.
  EXPECT_EQ(cs::count_components(labels), 8u);
}

TEST(CatalogComponents, VerticalBarsCount) {
  const auto image = im::make_test_pattern(im::TestPattern::kVerticalBars, 64);
  EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 8u);
}

TEST(CatalogComponents, CrossAndDiscAreSingle) {
  for (const auto id : {im::TestPattern::kCross, im::TestPattern::kDisc}) {
    const auto image = im::make_test_pattern(id, 64);
    EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 1u);
  }
}

TEST(CatalogComponents, FourSquaresAreFour) {
  const auto image = im::make_test_pattern(im::TestPattern::kFourSquares, 64);
  EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 4u);
}

TEST(CatalogComponents, DualSpiralIsTwoArms) {
  const auto image = im::make_test_pattern(im::TestPattern::kDualSpiral, 256);
  EXPECT_EQ(cs::count_components(cs::label_components_bfs(image)), 2u);
}

// ---- Hoshen-Kopelman cross-checks ----
#include "histcc/cc_seq/hoshen_kopelman.hpp"

TEST(HoshenKopelmanTest, MatchesBfsOnPatterns) {
  for (int id = 1; id <= im::kNumTestPatterns; ++id) {
    const auto image =
        im::make_test_pattern(static_cast<im::TestPattern>(id), 64);
    for (const auto conn :
         {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
      EXPECT_EQ(cs::label_components_hoshen_kopelman(image, conn),
                cs::label_components_bfs(image, conn))
          << "pattern " << id;
    }
  }
}

TEST(HoshenKopelmanTest, MatchesBfsOnPercolationSweep) {
  for (const double occ : {0.2, 0.5, 0.592746, 0.8, 1.0}) {
    const auto image = im::make_percolation(96, occ, 31);
    EXPECT_EQ(cs::label_components_hoshen_kopelman(image),
              cs::label_components_bfs(image))
        << "occupancy " << occ;
  }
}

TEST(HoshenKopelmanTest, GreyColourRule) {
  const auto image = im::make_darpa_like(96, 13);
  for (const auto conn : {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
    EXPECT_EQ(cs::label_components_hoshen_kopelman(
                  image, conn, cs::ColourRule::kSameColour),
              cs::label_components_bfs(image, conn,
                                       cs::ColourRule::kSameColour));
  }
}

TEST(HoshenKopelmanTest, UShapeMergesAcrossScan) {
  // The classic HK stress: two arms discovered separately, merged at the
  // bottom of the U; canonical label must be the first arm's.
  const auto image = from_rows({{1, 0, 1},  //
                                {1, 0, 1},  //
                                {1, 1, 1}});
  const auto labels = cs::label_components_hoshen_kopelman(image);
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      if (image(i, j)) {
        EXPECT_EQ(labels(i, j), 1u);
      }
    }
  }
}

// ---- Section 3 augmentation semantics: images 1-4, 7, 9 are "augmented"
// (component count grows with n), images 5, 6, 8 are "scaled" (constant).
TEST(CatalogComponents, AugmentedBarsGrowWithN) {
  auto bars = [](std::uint32_t n) {
    return cs::count_components(cs::label_components_bfs(
        im::make_test_pattern(im::TestPattern::kHorizontalBars, n)));
  };
  EXPECT_EQ(bars(64), 8u);
  EXPECT_EQ(bars(128), 16u);
  EXPECT_EQ(bars(256), 32u);
}

TEST(CatalogComponents, ScaledShapesStayConstant) {
  for (const auto id : {im::TestPattern::kCross, im::TestPattern::kDisc}) {
    for (const std::uint32_t n : {64u, 128u, 256u}) {
      EXPECT_EQ(cs::count_components(cs::label_components_bfs(
                    im::make_test_pattern(id, n))),
                1u)
          << "pattern " << static_cast<int>(id) << " n=" << n;
    }
  }
  auto squares = [](std::uint32_t n) {
    return cs::count_components(cs::label_components_bfs(
        im::make_test_pattern(im::TestPattern::kFourSquares, n)));
  };
  EXPECT_EQ(squares(64), 4u);
  EXPECT_EQ(squares(256), 4u);
}

TEST(CatalogComponents, AugmentedCirclesGrowWithN) {
  auto rings = [](std::uint32_t n) {
    return cs::count_components(cs::label_components_bfs(
        im::make_test_pattern(im::TestPattern::kCircles, n)));
  };
  EXPECT_GT(rings(256), rings(64));
}

TEST(CatalogComponents, SpiralStaysTwoArmsAtLargeSizes) {
  for (const std::uint32_t n : {512u, 1024u}) {
    EXPECT_EQ(cs::count_components(cs::label_components_bfs(
                  im::make_test_pattern(im::TestPattern::kDualSpiral, n))),
              2u)
        << "n=" << n;
  }
}
