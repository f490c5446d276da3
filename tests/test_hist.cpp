// Tests for histogramming (Section 4): sequential reference, the parallel
// algorithm across p and k regimes (k < p, k = p, k > p), the paper's
// correctness criteria (sum = n^2, exact band areas), and equalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string_view>

#include "histcc/hist/equalize.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/trace/trace.hpp"
#include "histcc/util/require.hpp"
#include "histcc/util/rng.hpp"

namespace hh = histcc::hist;
namespace im = histcc::img;
namespace sc = histcc::splitc;
namespace tr = histcc::trace;

TEST(HistogramSeqTest, CountsAreExact) {
  im::GreyImage image(2, 4, 0);
  image(0, 1) = 3;
  image(1, 2) = 3;
  image(1, 3) = 7;
  const auto counts = hh::histogram_seq(image, 8);
  EXPECT_EQ(counts[0], 5u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(counts[7], 1u);
  EXPECT_EQ(counts[1] + counts[2] + counts[4] + counts[5] + counts[6], 0u);
}

TEST(HistogramSeqTest, RejectsBadK) {
  const im::GreyImage image(4, 4, 0);
  EXPECT_THROW((void)hh::histogram_seq(image, 3), histcc::util::contract_error);
  EXPECT_THROW((void)hh::histogram_seq(image, 0), histcc::util::contract_error);
  EXPECT_THROW((void)hh::histogram_seq(image, 512),
               histcc::util::contract_error);
}

TEST(HistogramSeqTest, RejectsOutOfRangePixels) {
  im::GreyImage image(4, 4, 0);
  image(1, 1) = 9;
  EXPECT_THROW((void)hh::histogram_seq(image, 8),
               histcc::util::contract_error);
}

// The paper's first correctness criterion: sum of H equals n^2.
// Sweep p x k including k < p, k = p, and k > p.
class HistParallel
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(HistParallel, MatchesSequential) {
  const auto [p, k] = GetParam();
  const std::uint32_t n = 64;
  const auto image = im::make_random_grey(n, k, 1234 + p + k);
  const auto expected = hh::histogram_seq(image, k);

  sc::Machine machine(p);
  const auto counts = hh::histogram_parallel(machine, image, k);
  EXPECT_EQ(counts, expected);
  const auto total =
      std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
  EXPECT_EQ(total, static_cast<std::uint64_t>(n) * n);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HistParallel,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(2, 4, 16, 32, 64, 256)));

// The paper's second criterion: for regular patterns each H[i]/n^2 equals
// the fraction of area that grey level i covers.
TEST(HistParallelTest, BandedImageHasExactAreas) {
  const std::uint32_t n = 64, k = 8;
  const auto image = im::make_banded_grey(n, k);
  sc::Machine machine(8);
  const auto counts = hh::histogram_parallel(machine, image, k);
  for (const auto c : counts) EXPECT_EQ(c, n * n / k);
}

TEST(HistParallelTest, WorksOnPredistributedTiles) {
  const std::uint32_t n = 64, k = 16, p = 8;
  const auto image = im::make_random_grey(n, k, 77);
  sc::Machine machine(p);
  const im::TileLayout layout(n, p);
  sc::Spread<std::uint8_t> tiles(machine, layout.max_tile_size());
  layout.scatter(image, tiles);
  const auto counts = hh::histogram_parallel(machine, layout, tiles, k);
  EXPECT_EQ(counts, hh::histogram_seq(image, k));
}

TEST(HistParallelTest, PhaseTimesArePopulated) {
  // Phase times come from trace spans: one span per step on every rank.
  const auto image = im::make_random_grey(128, 256, 5);
  tr::Tracer tracer;
  sc::Machine machine(4);
  machine.set_trace(&tracer);
  (void)hh::histogram_parallel(machine, image, 256);
  const auto spans = tracer.spans();
  for (const char* step : hh::kHistStepSpans) {
    for (std::uint32_t rank = 0; rank < 4; ++rank) {
      const auto on_rank = std::count_if(
          spans.begin(), spans.end(), [&](const tr::Span& span) {
            return std::string_view(span.name) == step &&
                   span.tid == tr::rank_tid(rank);
          });
      EXPECT_EQ(on_rank, 1) << step << " on rank " << rank;
    }
  }
}

// Eq. (3): communication volume is independent of the image size n.
TEST(HistParallelTest, CommVolumeIndependentOfN) {
  const std::uint32_t p = 8, k = 256;
  std::uint64_t words_small = 0, words_large = 0;
  {
    sc::Machine machine(p);
    (void)hh::histogram_parallel(machine,
                                 im::make_random_grey(64, k, 1), k);
    words_small = machine.total_stats().words;
  }
  {
    sc::Machine machine(p);
    (void)hh::histogram_parallel(machine,
                                 im::make_random_grey(256, k, 2), k);
    words_large = machine.total_stats().words;
  }
  EXPECT_EQ(words_small, words_large);
  EXPECT_GT(words_small, 0u);
}

// And it is bounded by roughly 2k words per processor (two k-sized
// movements) — the 2(tau + k) of eq. (3).
TEST(HistParallelTest, CommVolumeBoundedByTwoK) {
  const std::uint32_t p = 16, k = 256;
  sc::Machine machine(p);
  (void)hh::histogram_parallel(machine, im::make_random_grey(64, k, 3), k);
  EXPECT_LE(machine.max_stats().words, 2u * k);
}

TEST(HistParallelTest, OutOfRangePixelFailsCleanly) {
  im::GreyImage image(64, 64, 0);
  image(10, 10) = 200;  // >= k below
  sc::Machine machine(4);
  EXPECT_THROW((void)hh::histogram_parallel(machine, image, 16),
               histcc::util::contract_error);
  // The machine must remain usable after the aborted SPMD program.
  const auto counts =
      hh::histogram_parallel(machine, im::make_random_grey(64, 16, 9), 16);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), 64u * 64u);
}

TEST(EqualizeTest, MapIsMonotonic) {
  const auto image = im::make_darpa_like(128, 3);
  const auto counts = hh::histogram_seq(image, 256);
  const auto map = hh::equalization_map(counts, image.size());
  for (std::size_t g = 1; g < map.size(); ++g) {
    EXPECT_LE(map[g - 1], map[g]);
  }
}

TEST(EqualizeTest, FlattensConcentratedHistogram) {
  // An image squeezed into levels 100..115 must spread to the full range.
  im::GreyImage image(64, 64);
  histcc::util::Rng rng(8);
  for (auto& px : image.pixels()) {
    px = static_cast<std::uint8_t>(100 + rng.next_below(16));
  }
  const auto out = hh::equalize(image, 256);
  std::uint8_t lo = 255, hi = 0;
  for (const auto px : out.pixels()) {
    lo = std::min(lo, px);
    hi = std::max(hi, px);
  }
  EXPECT_EQ(lo, 0);
  EXPECT_GE(hi, 250);
}

TEST(EqualizeTest, UniformImageIsStable) {
  const im::GreyImage image(16, 16, 5);
  const auto out = hh::equalize(image, 16);
  for (const auto px : out.pixels()) EXPECT_EQ(px, 0);
}

TEST(EqualizeTest, PreservesPixelCount) {
  const auto image = im::make_random_grey(64, 64, 21);
  const auto out = hh::equalize(image, 64);
  EXPECT_EQ(out.size(), image.size());
  // Equalization is a per-level remap: equal inputs stay equal.
  for (std::size_t idx = 1; idx < image.size(); ++idx) {
    if (image.pixels()[idx] == image.pixels()[0]) {
      EXPECT_EQ(out.pixels()[idx], out.pixels()[0]);
    }
  }
}
