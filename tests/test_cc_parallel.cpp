// End-to-end tests of the parallel connected-components algorithm
// (Sections 5-6): exact equality with the sequential canonical labeling
// across the nine catalog patterns, processor counts, connectivities,
// colour rules, and all option ablations.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc_seq/analysis.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/hoshen_kopelman.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/trace/trace.hpp"
#include "histcc/util/math.hpp"
#include "run_images.hpp"

namespace cc = histcc::cc;
namespace cs = histcc::ccseq;
namespace im = histcc::img;
namespace sc = histcc::splitc;
namespace tr = histcc::trace;

namespace {

void expect_matches_sequential(const im::GreyImage& image, std::uint32_t p,
                               const cc::CcOptions& options,
                               const char* what) {
  sc::Machine machine(p);
  const auto parallel =
      cc::connected_components_parallel(machine, image, options);
  const auto sequential =
      cs::label_components_bfs(image, options.connectivity, options.rule);
  EXPECT_EQ(parallel, sequential) << what << " p=" << p;
}

}  // namespace

// The main correctness sweep: every catalog pattern on every machine size.
class CcPatternSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint32_t>> {};

TEST_P(CcPatternSweep, MatchesSequentialEightConn) {
  const auto [pattern, p] = GetParam();
  const auto image =
      im::make_test_pattern(static_cast<im::TestPattern>(pattern), 64);
  expect_matches_sequential(image, p, cc::CcOptions{},
                            im::pattern_name(static_cast<im::TestPattern>(pattern)).data());
}

TEST_P(CcPatternSweep, MatchesSequentialFourConn) {
  const auto [pattern, p] = GetParam();
  const auto image =
      im::make_test_pattern(static_cast<im::TestPattern>(pattern), 64);
  cc::CcOptions options;
  options.connectivity = cs::Connectivity::kFour;
  expect_matches_sequential(image, p, options, "four-conn");
}

INSTANTIATE_TEST_SUITE_P(Catalog, CcPatternSweep,
                         ::testing::Combine(::testing::Range(1, 10),
                                            ::testing::Values(1, 2, 4, 8, 16,
                                                              32)));

TEST(CcParallelTest, AllBackground) {
  const im::GreyImage image(64, 64, 0);
  sc::Machine machine(8);
  const auto labels = cc::connected_components_parallel(machine, image);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 0u);
}

TEST(CcParallelTest, AllForegroundSingleComponent) {
  const im::GreyImage image(64, 64, 1);
  sc::Machine machine(16);
  const auto labels = cc::connected_components_parallel(machine, image);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 1u);
}

TEST(CcParallelTest, SinglePixelComponents) {
  // A sparse grid of isolated pixels: no merging ever happens, but hooks
  // and border updates must still behave.
  im::GreyImage image(64, 64, 0);
  for (std::uint32_t i = 0; i < 64; i += 4) {
    for (std::uint32_t j = 0; j < 64; j += 4) {
      image(i, j) = 1;
    }
  }
  expect_matches_sequential(image, 16, cc::CcOptions{}, "sparse-dots");
}

TEST(CcParallelTest, ComponentAlongAllTileBorders) {
  // A single-pixel-wide frame around every tile boundary of a 4x4 grid.
  im::GreyImage image(64, 64, 0);
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (std::uint32_t j = 0; j < 64; ++j) {
      if (i % 16 == 15 || i % 16 == 0 || j % 16 == 15 || j % 16 == 0) {
        image(i, j) = 1;
      }
    }
  }
  expect_matches_sequential(image, 16, cc::CcOptions{}, "tile-frames");
}

TEST(CcParallelTest, GreyLevelsStaySeparate) {
  const auto image = im::make_darpa_like(64, 31);
  cc::CcOptions options;
  options.rule = cs::ColourRule::kSameColour;
  for (const std::uint32_t p : {1u, 4u, 8u, 32u}) {
    expect_matches_sequential(image, p, options, "darpa-grey");
  }
}

TEST(CcParallelTest, IsingClustersBothPhases) {
  const auto image = im::make_ising(64, 0.8);
  cc::CcOptions options;
  options.rule = cs::ColourRule::kSameColour;
  expect_matches_sequential(image, 16, options, "ising");
}

class CcPercolationSweep : public ::testing::TestWithParam<double> {};

TEST_P(CcPercolationSweep, RandomLatticesMatch) {
  const double occupancy = GetParam();
  const auto image = im::make_percolation(64, occupancy, 1000);
  for (const std::uint32_t p : {4u, 16u}) {
    expect_matches_sequential(image, p, cc::CcOptions{}, "percolation");
    cc::CcOptions four;
    four.connectivity = cs::Connectivity::kFour;
    expect_matches_sequential(image, p, four, "percolation-4");
  }
}

INSTANTIATE_TEST_SUITE_P(Occupancies, CcPercolationSweep,
                         ::testing::Values(0.1, 0.3, 0.5, 0.592746, 0.7,
                                           0.95));

TEST(CcParallelTest, NonSquareTilesAndOddLogP) {
  // p = 8 gives a 2x4 grid (odd d): exercises the extra horizontal merge.
  const auto image = im::make_percolation(64, 0.6, 4242);
  expect_matches_sequential(image, 8, cc::CcOptions{}, "2x4-grid");
  expect_matches_sequential(image, 2, cc::CcOptions{}, "1x2-grid");
  expect_matches_sequential(image, 128, cc::CcOptions{}, "8x16-grid");
}

// Option ablations must not change the answer, only the cost.
class CcOptionSweep : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {
};

TEST_P(CcOptionSweep, AblationsPreserveCorrectness) {
  const auto [shadow, eq9, full] = GetParam();
  cc::CcOptions options;
  options.use_shadow_manager = shadow;
  options.eq9_distribution = eq9;
  options.full_relabel_each_phase = full;
  const auto spiral =
      im::make_test_pattern(im::TestPattern::kDualSpiral, 64);
  expect_matches_sequential(spiral, 16, options, "ablation-spiral");
  const auto perc = im::make_percolation(64, 0.55, 7);
  expect_matches_sequential(perc, 8, options, "ablation-percolation");
}

INSTANTIATE_TEST_SUITE_P(Options, CcOptionSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(CcParallelTest, LargerImageAt32Procs) {
  const auto image = im::make_darpa_like(128, 8);
  cc::CcOptions options;
  options.rule = cs::ColourRule::kSameColour;
  expect_matches_sequential(image, 32, options, "darpa-128");
}

TEST(CcParallelTest, PhasesReported) {
  // Phase times come from trace spans: every rank opens one init and one
  // final span, and one border/graph/update span per merge phase — log 16
  // = 4 of them.
  const auto image = im::make_percolation(64, 0.5, 11);
  tr::Tracer tracer;
  sc::Machine machine(16);
  machine.set_trace(&tracer);
  (void)cc::connected_components_parallel(machine, image);
  std::map<std::string_view, std::size_t> spans;
  for (const auto& span : tracer.spans()) spans[span.name] += 1;
  EXPECT_EQ(spans["cc/init"], 16u);
  EXPECT_EQ(spans["cc/border"], 16u * 4u);
  EXPECT_EQ(spans["cc/graph"], 16u * 4u);
  EXPECT_EQ(spans["cc/update"], 16u * 4u);
  EXPECT_EQ(spans["cc/final"], 16u);
}

TEST(CcParallelTest, CommCostFarBelowImageSize) {
  // The whole point: merging moves O(n) border words, not O(n^2) pixels.
  const std::uint32_t n = 128;
  const auto image = im::make_percolation(n, 0.6, 13);
  sc::Machine machine(16);
  (void)cc::connected_components_parallel(machine, image);
  const auto total = machine.total_stats();
  EXPECT_GT(total.words, 0u);
  EXPECT_LT(total.words, static_cast<std::uint64_t>(n) * n)
      << "merge communication should be far below n^2 pixels";
}

TEST(CcParallelTest, ValidLabelingOnEveryPattern) {
  for (int id = 1; id <= im::kNumTestPatterns; ++id) {
    const auto image =
        im::make_test_pattern(static_cast<im::TestPattern>(id), 64);
    sc::Machine machine(8);
    const auto labels = cc::connected_components_parallel(machine, image);
    EXPECT_TRUE(cs::is_valid_labeling(image, labels,
                                      cs::Connectivity::kEight,
                                      cs::ColourRule::kBinary))
        << "pattern " << id;
  }
}

TEST(CcParallelTest, RunBoundariesMatchOracles) {
  // Every tile exactly one of the widths around the 64-pixel mask words,
  // with runs at its first and last columns, on and across the word
  // boundaries, and as dense as they get; the ablation that fills whole
  // tiles at init rides along.
  constexpr std::uint32_t kTileRows = 5;
  for (const std::uint32_t p : {1u, 4u, 16u}) {
    sc::Machine machine(p);
    const auto grid = histcc::util::grid_shape(p);
    for (const std::uint32_t width : histcc::testing::kRunTileWidths) {
      for (const auto& [name, image] : histcc::testing::run_boundary_images(
               kTileRows * grid.rows, width * grid.cols, width)) {
        for (const auto rule :
             {cs::ColourRule::kBinary, cs::ColourRule::kSameColour}) {
          for (const auto conn :
               {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
            const auto bfs = cs::label_components_bfs(image, conn, rule);
            const std::string what =
                name + " width " + std::to_string(width) + " p=" +
                std::to_string(p) + " conn " +
                std::to_string(static_cast<int>(conn)) + " rule " +
                std::to_string(static_cast<int>(rule));
            ASSERT_EQ(cs::label_components_hoshen_kopelman(image, conn, rule),
                      bfs)
                << what;
            for (const bool full : {false, true}) {
              cc::CcOptions options;
              options.connectivity = conn;
              options.rule = rule;
              options.full_relabel_each_phase = full;
              ASSERT_EQ(
                  cc::connected_components_parallel(machine, image, options),
                  bfs)
                  << what << (full ? " full relabel" : "");
            }
          }
        }
      }
    }
  }
}

TEST(CcParallelTest, BenchmarkFrameGeneratorsMatchBfs) {
  // The end-to-end benchmark's frame_cc inputs (perfbench make_cc_frames,
  // all 8-connected): a DARPA-like scene under the same-colour rule,
  // binary percolation at 0.59 and the dual spiral, at 256x256 and as a
  // 1000-row, 333-column crop.  Its oracle, label_components_unionfind,
  // runs the same scan as the VM path, so both are checked against the
  // independent BFS here, on the Machine(4) the benchmark uses.
  sc::Machine machine(4);
  const auto crop = [](const im::GreyImage& image, std::uint32_t cols) {
    im::GreyImage out(image.height(), cols);
    for (std::uint32_t i = 0; i < image.height(); ++i) {
      for (std::uint32_t j = 0; j < cols; ++j) out(i, j) = image(i, j);
    }
    return out;
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& [n, cols] : {std::pair{256u, 256u}, {1000u, 333u}}) {
      std::vector<std::tuple<std::string, im::GreyImage, cs::ColourRule>>
          frames;
      frames.emplace_back("darpa", crop(im::make_darpa_like(n, seed), cols),
                          cs::ColourRule::kSameColour);
      frames.emplace_back("percolation",
                          crop(im::make_percolation(n, 0.59, seed), cols),
                          cs::ColourRule::kBinary);
      if (seed == 1) {  // the spiral takes no seed
        frames.emplace_back(
            "spiral",
            crop(im::make_test_pattern(im::TestPattern::kDualSpiral, n), cols),
            cs::ColourRule::kBinary);
      }
      for (const auto& [name, image, rule] : frames) {
        const std::string what = name + " " + std::to_string(n) + "x" +
                                 std::to_string(cols) + " seed " +
                                 std::to_string(seed);
        const auto bfs =
            cs::label_components_bfs(image, cs::Connectivity::kEight, rule);
        EXPECT_EQ(cs::label_components_unionfind(
                      image, cs::Connectivity::kEight, rule),
                  bfs)
            << what;
        cc::CcOptions options;
        options.rule = rule;
        EXPECT_EQ(cc::connected_components_parallel(machine, image, options),
                  bfs)
            << what;
      }
    }
  }
}
