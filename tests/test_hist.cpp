// Tests for histogramming (Section 4): sequential reference, the local
// tally kernel against it, the parallel algorithm across p and k regimes
// (k < p, k = p, k > p), the paper's correctness criteria (sum = n^2,
// exact band areas), and equalization.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string_view>
#include <utility>
#include <vector>

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

namespace {

/// A 1 x len image of pseudo-random levels below k.
im::GreyImage random_row(std::uint32_t len, std::uint32_t k,
                         std::uint64_t seed) {
  im::GreyImage image(1, len);
  histcc::util::Rng rng(seed);
  for (auto& px : image.pixels()) {
    px = static_cast<std::uint8_t>(rng.next_below(k));
  }
  return image;
}

}  // namespace

// tally against the independent one-pass loop: every length around the
// four-way unroll, a long ragged tail, and a full DARPA-like frame (long
// runs of one level) requantized to k levels.
TEST(TallyTest, MatchesSequentialHistogram) {
  for (const std::uint32_t k : {2u, 16u, 256u}) {
    std::vector<im::GreyImage> images;
    for (std::uint32_t len = 0; len <= 9; ++len) {
      images.push_back(random_row(len, k, 100 + len));
    }
    images.push_back(random_row(4097, k, 7));
    auto frame = im::make_darpa_like(1024);
    const auto shift = static_cast<unsigned>(8 - std::countr_zero(k));
    for (auto& px : frame.pixels()) {
      px = static_cast<std::uint8_t>(px >> shift);
    }
    images.push_back(std::move(frame));
    for (const auto& image : images) {
      std::vector<std::uint32_t> counts(k, 0);
      hh::tally(image.pixels(), counts, k);
      EXPECT_EQ(counts, hh::histogram_seq(image, k))
          << image.size() << " px, k=" << k;
    }
  }
}

TEST(TallyTest, AddsIntoCounts) {
  const std::uint32_t k = 16;
  const auto image = random_row(4097, k, 11);
  std::vector<std::uint32_t> counts(k);
  std::iota(counts.begin(), counts.end(), 1000u);
  hh::tally(image.pixels(), counts, k);
  const auto expected = hh::histogram_seq(image, k);
  for (std::uint32_t g = 0; g < k; ++g) {
    EXPECT_EQ(counts[g], 1000u + g + expected[g]) << "bar " << g;
  }
}

// The bad level may sit in any of the four sub-tables or in the scalar
// tail; each throws, and the output bars are left as they were.
TEST(TallyTest, OutOfRangePixelThrowsAtEveryPosition) {
  const std::uint32_t k = 16;
  const std::uint32_t len = 4 * 4 + 3;  // four unrolled rounds + 3-px tail
  for (std::uint32_t bad = 0; bad < len; ++bad) {
    auto image = random_row(len, k, 5);
    image.pixels()[bad] = static_cast<std::uint8_t>(bad % 2 == 0 ? k : 255);
    std::vector<std::uint32_t> counts(k, 7);
    EXPECT_THROW(hh::tally(image.pixels(), counts, k),
                 histcc::util::contract_error)
        << "bad pixel at " << bad;
    EXPECT_EQ(counts, std::vector<std::uint32_t>(k, 7));
  }
}

TEST(TallyTest, RejectsBadArguments) {
  const auto image = random_row(8, 4, 1);
  std::vector<std::uint32_t> counts(4, 0);
  EXPECT_THROW(hh::tally(image.pixels(), counts, 3),
               histcc::util::contract_error);
  EXPECT_THROW(hh::tally(image.pixels(), counts, 8),  // counts too short
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
  // The bad pixel is the last pixel of the last non-empty tile, which at
  // p = 16 on 1000 x 3 is not rank p - 1 (grid column 3 is empty).
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {{64, 64},
                                                            {1000, 3}};
  for (const std::uint32_t p : {1u, 4u, 16u}) {
    sc::Machine machine(p);
    for (const auto& [h, w] : shapes) {
      const im::TileLayout layout(h, w, p);
      std::uint32_t rank = p - 1;
      while (layout.tile_size(rank) == 0) --rank;
      im::GreyImage image(h, w, 0);
      image(layout.global_row(rank, layout.tile_rows(rank) - 1),
            layout.global_col(rank, layout.tile_cols(rank) - 1)) = 200;
      EXPECT_THROW((void)hh::histogram_parallel(machine, image, 16),
                   histcc::util::contract_error)
          << h << "x" << w << " p=" << p << " rank " << rank;
      // The machine must remain usable after the aborted SPMD program.
      const auto good = im::make_random_grey(64, 16, 9);
      EXPECT_EQ(hh::histogram_parallel(machine, good, 16),
                hh::histogram_seq(good, 16))
          << h << "x" << w << " p=" << p;
    }
  }
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
