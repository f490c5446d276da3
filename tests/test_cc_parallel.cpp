// End-to-end tests of the parallel connected-components algorithm
// (Sections 5-6): exact equality with the sequential canonical labeling
// across the nine catalog patterns, processor counts, connectivities,
// colour rules, and all option ablations.
#include <gtest/gtest.h>

#include <map>
#include <string_view>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc_seq/analysis.hpp"
#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/trace/trace.hpp"

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
