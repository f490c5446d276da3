// Tests for the shared-memory (OpenMP) host backend: exact agreement with
// the sequential references across workloads, connectivities, and colour
// rules, strip-seam edge cases, explicit team sizes, and the
// barrier-epoch checker (epoch_check.hpp) — including a deliberately racy
// OpenMP program that must be detected with full diagnostics.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "histcc/cc_seq/bfs_label.hpp"
#include "histcc/cc_seq/hoshen_kopelman.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/omp/epoch_check.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/splitc/race_ledger.hpp"
#include "histcc/util/require.hpp"
#include "run_images.hpp"

namespace cs = histcc::ccseq;
namespace hh = histcc::hist;
namespace im = histcc::img;
namespace ho = histcc::omp;
namespace sc = histcc::splitc;

namespace {

/// Spin until `flag` reaches `want`.
void await(const std::atomic<int>& flag, int want) {
  while (flag.load(std::memory_order_acquire) != want) {
    std::this_thread::yield();
  }
}

/// Team sizes for the seam tests: one strip, even and odd splits, and more
/// threads than most test images have rows.
constexpr unsigned kSeamThreads[] = {1, 2, 3, 4, 7, 16};

/// Expect connected_components_omp at every kSeamThreads count to equal
/// BFS and Hoshen-Kopelman, under both connectivities and colour rules.
void expect_matches_oracles(const im::GreyImage& image,
                            const std::string& what) {
  for (const auto rule :
       {cs::ColourRule::kBinary, cs::ColourRule::kSameColour}) {
    for (const auto conn :
         {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
      const auto bfs = cs::label_components_bfs(image, conn, rule);
      const std::string how = what + " conn " +
                              std::to_string(static_cast<int>(conn)) +
                              " rule " + std::to_string(static_cast<int>(rule));
      ASSERT_EQ(cs::label_components_hoshen_kopelman(image, conn, rule), bfs)
          << how;
      for (const unsigned threads : kSeamThreads) {
        ASSERT_EQ(ho::connected_components_omp(image, conn, rule, threads),
                  bfs)
            << how << " threads=" << threads;
      }
    }
  }
}

/// RAII toggle for the built-in algorithms' self-instrumentation.
struct ScopedEpochCheck {
  ScopedEpochCheck() { ho::set_epoch_check_enabled(true); }
  ~ScopedEpochCheck() { ho::set_epoch_check_enabled(false); }
};

}  // namespace

TEST(OmpBackendTest, ReportsThreads) {
  EXPECT_GE(ho::backend_threads(), 1u);
}

#ifdef _OPENMP
// Called from inside a parallel region the backend's team is nested and,
// with nesting off (the OpenMP default), has one thread: that thread must
// still tally every pixel slice and reduce every grey level, and scan and
// fill every strip.
TEST(OmpBackendTest, TeamSmallerThanRequestedCoversEverySlice) {
  if (ho::tsan_active()) {
    GTEST_SKIP() << "libgomp teams are not TSan-instrumented";
  }
  const auto image = im::make_percolation(64, 0.59, 7);
  const auto grey = im::make_random_grey(64, 16, 7);
  std::vector<im::LabelImage> labels(2);
  std::vector<std::vector<std::uint32_t>> counts(2);
#pragma omp parallel num_threads(2)
  {
    const auto t = static_cast<std::size_t>(omp_get_thread_num());
    labels[t] = ho::connected_components_omp(image, cs::Connectivity::kEight,
                                             cs::ColourRule::kBinary, 4);
    counts[t] = ho::histogram_omp(grey, 16, 4);
  }
  const std::size_t callers = labels[1].pixels().empty() ? 1 : 2;
  for (std::size_t t = 0; t < callers; ++t) {
    EXPECT_EQ(labels[t], cs::label_components_bfs(image)) << "caller " << t;
    EXPECT_EQ(counts[t], hh::histogram_seq(grey, 16)) << "caller " << t;
  }
}
#endif  // _OPENMP

class OmpHistSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {
};

TEST_P(OmpHistSweep, MatchesSequential) {
  const auto [n, k] = GetParam();
  const auto image = im::make_random_grey(n, k, n * 3 + k);
  EXPECT_EQ(ho::histogram_omp(image, k), hh::histogram_seq(image, k));
}

INSTANTIATE_TEST_SUITE_P(Sweep, OmpHistSweep,
                         ::testing::Combine(::testing::Values(32u, 64u, 257u),
                                            ::testing::Values(2u, 16u, 256u)));

TEST(OmpHistTest, RejectsBadInputs) {
  const auto image = im::make_random_grey(32, 256, 1);
  EXPECT_THROW((void)ho::histogram_omp(image, 3),
               histcc::util::contract_error);
  EXPECT_THROW((void)ho::histogram_omp(image, 16),  // pixels >= 16 exist
               histcc::util::contract_error);
}

// Each thread tallies a contiguous slice, so the last pixel lies in the
// last thread's slice; its contract_error must cross the parallel region
// to the caller, and the next call must run normally.
TEST(OmpHistTest, OutOfRangePixelInLastThreadThrows) {
  for (const unsigned threads : {1u, 3u, 4u, 7u}) {
    auto image = im::make_random_grey(64, 16, threads);
    image(63, 63) = 16;
    EXPECT_THROW((void)ho::histogram_omp(image, 16, threads),
                 histcc::util::contract_error)
        << threads << " threads";
    image(63, 63) = 15;
    EXPECT_EQ(ho::histogram_omp(image, 16, threads),
              hh::histogram_seq(image, 16))
        << threads << " threads";
  }
}

class OmpCcSweep : public ::testing::TestWithParam<int> {};

TEST_P(OmpCcSweep, MatchesBfsOnCatalog) {
  const auto pattern = static_cast<im::TestPattern>(GetParam());
  for (const std::uint32_t n : {64u, 127u, 128u}) {  // odd size too
    const auto image = im::make_test_pattern(pattern, n);
    for (const auto conn :
         {cs::Connectivity::kFour, cs::Connectivity::kEight}) {
      EXPECT_EQ(ho::connected_components_omp(image, conn),
                cs::label_components_bfs(image, conn))
          << im::pattern_name(pattern) << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, OmpCcSweep, ::testing::Range(1, 10));

TEST(OmpCcTest, GreyRule) {
  const auto image = im::make_darpa_like(96, 77);
  EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                         cs::ColourRule::kSameColour),
            cs::label_components_bfs(image, cs::Connectivity::kEight,
                                     cs::ColourRule::kSameColour));
}

TEST(OmpCcTest, PercolationSweep) {
  for (const double occ : {0.3, 0.592746, 0.9}) {
    const auto image = im::make_percolation(128, occ, 11);
    EXPECT_EQ(ho::connected_components_omp(image),
              cs::label_components_bfs(image)) << occ;
  }
}

TEST(OmpCcTest, ComponentsSpanningStripBoundaries) {
  // Vertical lines cross every strip boundary; one component per column.
  im::GreyImage image(64, 64, 0);
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (std::uint32_t j = 0; j < 64; j += 4) image(i, j) = 1;
  }
  EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kFour),
            cs::label_components_bfs(image, cs::Connectivity::kFour));
}

TEST(OmpCcTest, TinyImages) {
  for (const std::uint32_t n : {1u, 2u, 3u}) {
    im::GreyImage image(n, n, 1);
    const auto labels = ho::connected_components_omp(image);
    for (const auto l : labels.pixels()) EXPECT_EQ(l, 1u);
  }
  const im::GreyImage empty_row(1, 8, 0);
  const auto labels = ho::connected_components_omp(empty_row);
  for (const auto l : labels.pixels()) EXPECT_EQ(l, 0u);
}

TEST(OmpCcTest, DeterministicAcrossRuns) {
  const auto image = im::make_darpa_like(128, 4);
  const auto first = ho::connected_components_omp(
      image, cs::Connectivity::kEight, cs::ColourRule::kSameColour);
  for (int round = 0; round < 5; ++round) {
    EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                           cs::ColourRule::kSameColour),
              first);
  }
}

TEST(OmpCcTest, ExplicitTeamSizesMatchSequential) {
  const auto image = im::make_percolation(97, 0.58, 13);  // odd side
  const auto want = cs::label_components_bfs(image);
  for (const unsigned threads : {1u, 3u, 7u, 16u}) {
    EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                           cs::ColourRule::kBinary, threads),
              want)
        << "threads=" << threads;
  }
  for (const unsigned threads : {1u, 3u, 7u, 16u}) {
    EXPECT_EQ(ho::histogram_omp(image, 2, threads),
              hh::histogram_seq(image, 2))
        << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Strip seams: each thread scans a row strip, and a serial pass links the
// last row of every strip to the first row of the next.

TEST(OmpCcSeams, RunBoundaryCatalogMatchesOracles) {
  // 23 rows: uneven strips at every team size, one-row strips at 16.
  for (const std::uint32_t width : histcc::testing::kRunTileWidths) {
    for (const auto& [name, image] :
         histcc::testing::run_boundary_images(23, width, width)) {
      expect_matches_oracles(image, name + " width " + std::to_string(width));
    }
  }
}

TEST(OmpCcSeams, BenchmarkFrameGeneratorsMatchOracles) {
  // The end-to-end benchmark's frame_cc generators (perfbench
  // make_cc_frames) at 256x256 and as a 1000-row, 333-column crop.  Its
  // oracle shares the run scan with this backend, so BFS and
  // Hoshen-Kopelman check both here.
  const auto crop = [](const im::GreyImage& image, std::uint32_t cols) {
    im::GreyImage out(image.height(), cols);
    for (std::uint32_t i = 0; i < image.height(); ++i) {
      for (std::uint32_t j = 0; j < cols; ++j) out(i, j) = image(i, j);
    }
    return out;
  };
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const auto& [n, cols] : {std::pair{256u, 256u}, {1000u, 333u}}) {
      const std::string shape = " " + std::to_string(n) + "x" +
                                std::to_string(cols) + " seed " +
                                std::to_string(seed);
      expect_matches_oracles(crop(im::make_darpa_like(n, seed), cols),
                             "darpa" + shape);
      expect_matches_oracles(crop(im::make_percolation(n, 0.59, seed), cols),
                             "percolation" + shape);
      if (seed == 1) {  // the spiral takes no seed
        expect_matches_oracles(
            crop(im::make_test_pattern(im::TestPattern::kDualSpiral, n), cols),
            "spiral" + shape);
      }
    }
  }
}

TEST(OmpCcSeams, DiagonalTouchLinksOnlyUnderEightConnectivity) {
  // A one-pixel diagonal line down and to the right, and one down and to
  // the left, so every seam at every team size is crossed by a diagonal
  // touch in both directions of the 8-connected overlap.
  for (const bool leftwards : {false, true}) {
    constexpr std::uint32_t n = 16;
    im::GreyImage image(n, n, 0);
    for (std::uint32_t i = 0; i < n; ++i) image(i, leftwards ? n - 1 - i : i) = 1;
    for (const unsigned threads : kSeamThreads) {
      const auto eight = ho::connected_components_omp(
          image, cs::Connectivity::kEight, cs::ColourRule::kBinary, threads);
      const auto four = ho::connected_components_omp(
          image, cs::Connectivity::kFour, cs::ColourRule::kBinary, threads);
      EXPECT_EQ(eight, cs::label_components_bfs(image, cs::Connectivity::kEight))
          << "threads=" << threads;
      EXPECT_EQ(four, cs::label_components_bfs(image, cs::Connectivity::kFour))
          << "threads=" << threads;
      const std::uint32_t first = leftwards ? n : 1;  // label of pixel (0, .)
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t j = leftwards ? n - 1 - i : i;
        EXPECT_EQ(eight(i, j), first) << "threads=" << threads << " row " << i;
        EXPECT_EQ(four(i, j), i * n + j + 1)
            << "threads=" << threads << " row " << i;
      }
    }
  }
}

TEST(OmpCcSeams, ArmsJoinedInALowerStripKeepTheUpperMinimum) {
  // A U whose arms meet only in the bottom row.  The right arm starts at
  // row 0 and the left at row 5, so the component's canonical label is
  // the right arm's (0, 9) + 1 = 10, though the left arm's first pixel
  // lies further left; every strip above the bottom one sees two arms.
  constexpr std::uint32_t rows = 24;
  constexpr std::uint32_t cols = 12;
  im::GreyImage image(rows, cols, 0);
  for (std::uint32_t i = 0; i < rows; ++i) image(i, 9) = 1;
  for (std::uint32_t i = 5; i < rows; ++i) image(i, 2) = 1;
  for (std::uint32_t j = 2; j <= 9; ++j) image(rows - 1, j) = 1;
  for (const unsigned threads : kSeamThreads) {
    const auto labels = ho::connected_components_omp(
        image, cs::Connectivity::kFour, cs::ColourRule::kBinary, threads);
    EXPECT_EQ(labels, cs::label_components_bfs(image, cs::Connectivity::kFour))
        << "threads=" << threads;
    for (std::size_t idx = 0; idx < image.pixels().size(); ++idx) {
      EXPECT_EQ(labels.pixels()[idx], image.pixels()[idx] != 0 ? 10u : 0u)
          << "threads=" << threads << " pixel " << idx;
    }
  }
  expect_matches_oracles(image, "u-shape");
}

TEST(OmpCcSeams, DifferentColoursDoNotLinkUnderTheSameColourRule) {
  // Full rows of colours 1 and 2 alternating: under the same-colour rule
  // every row is its own component, so no seam links; under the binary
  // rule the image is one component.
  constexpr std::uint32_t n = 20;
  im::GreyImage image(n, n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < n; ++j) {
      image(i, j) = static_cast<std::uint8_t>(1 + i % 2);
    }
  }
  for (const unsigned threads : kSeamThreads) {
    const auto same = ho::connected_components_omp(
        image, cs::Connectivity::kEight, cs::ColourRule::kSameColour, threads);
    const auto binary = ho::connected_components_omp(
        image, cs::Connectivity::kEight, cs::ColourRule::kBinary, threads);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        ASSERT_EQ(same(i, j), i * n + 1) << "threads=" << threads;
        ASSERT_EQ(binary(i, j), 1u) << "threads=" << threads;
      }
    }
  }
  expect_matches_oracles(image, "colour rows");
}

TEST(OmpCcSeams, MoreThreadsThanRows) {
  // Most of kSeamThreads reach or pass these row counts: one-row strips.
  for (const std::uint32_t rows : {1u, 2u, 3u, 5u}) {
    const auto image = im::make_random_grey(rows, 3, rows);  // rows x rows
    for (const std::uint32_t cols : {1u, 9u, 70u}) {
      im::GreyImage wide(rows, cols);
      for (std::uint32_t i = 0; i < rows; ++i) {
        for (std::uint32_t j = 0; j < cols; ++j) {
          wide(i, j) = image(i, j % rows);
        }
      }
      expect_matches_oracles(wide,
                             std::to_string(rows) + "x" + std::to_string(cols));
    }
  }
}

// ---------------------------------------------------------------------------
// Barrier-epoch checking of the OpenMP mirror (epoch_check.hpp).

TEST(OmpEpochCheck, BuiltInAlgorithmsSelfVerifyClean) {
  ScopedEpochCheck guard;
  const auto image = im::make_test_pattern(im::TestPattern::kDualSpiral, 64);
  // A random 16-level frame under the same-colour rule has about 0.9 runs
  // per pixel, so most runs of every seam row link across the seam.
  const auto dense = im::make_random_grey(64, 16, 5);
  // Under the checker both algorithms annotate every shared access and
  // throw on a protocol violation — so completing is the assertion; the
  // results must also still be exact.
  for (const unsigned threads : {1u, 3u, 4u, 7u}) {
    EXPECT_EQ(ho::connected_components_omp(image, cs::Connectivity::kEight,
                                           cs::ColourRule::kBinary, threads),
              cs::label_components_bfs(image))
        << "threads=" << threads;
    EXPECT_EQ(ho::connected_components_omp(dense, cs::Connectivity::kEight,
                                           cs::ColourRule::kSameColour,
                                           threads),
              cs::label_components_bfs(dense, cs::Connectivity::kEight,
                                       cs::ColourRule::kSameColour))
        << "threads=" << threads;
    EXPECT_EQ(ho::histogram_omp(image, 2, threads),
              hh::histogram_seq(image, 2))
        << "threads=" << threads;
  }
}

TEST(OmpEpochCheck, EpochCheckDisabledByDefault) {
  EXPECT_FALSE(ho::epoch_check_enabled());
}

// A deliberately racy program checked through the EpochChecker directly:
// thread 1 reads thread 0's slot in the same epoch thread 0 wrote it —
// no barrier between.  The accesses are flag-sequenced (no C++ data race,
// TSan silent); the protocol violation must still be diagnosed with the
// array name, both thread ids, the element, and the epoch.
TEST(OmpEpochCheck, RacyProgramIsDetectedWithFullDiagnostics) {
  ho::EpochChecker chk(2);
  auto shadow = chk.attach("omp_shared");
  std::vector<std::uint32_t> shared(2, 0);
  std::atomic<int> turn{0};

  auto worker = [&](unsigned tid) {
    if (tid == 0) {
      shared[0] = 7;
      chk.note_write(*shadow, 0, 0, 1);
      turn.store(1, std::memory_order_release);
    } else {
      await(turn, 1);
      shared[1] = shared[0];  // reads slot 0 with no barrier since its write
      chk.note_write(*shadow, 1, 1, 1);
      chk.note_read(*shadow, 1, 0, 1);
    }
  };
  std::thread t0(worker, 0);
  std::thread t1(worker, 1);
  t0.join();
  t1.join();

  ASSERT_EQ(chk.conflict_count(), 1u);
  const auto diags = chk.diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  const auto& d = diags.front();
  EXPECT_EQ(d.array, "omp_shared");
  EXPECT_EQ(d.offset, 0u);
  EXPECT_EQ(d.epoch, 1u);
  EXPECT_EQ(d.first_rank, 0u);
  EXPECT_EQ(d.first_kind, sc::RaceAccess::kWrite);
  EXPECT_EQ(d.second_rank, 1u);
  EXPECT_EQ(d.second_kind, sc::RaceAccess::kRead);
  const auto msg = d.to_string();
  EXPECT_NE(msg.find("omp_shared"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("epoch 1"), std::string::npos) << msg;
  EXPECT_THROW(chk.throw_if_conflicts(), sc::RaceLedgerViolation);
}

#ifdef _OPENMP
// The same protocol bug inside a real `#pragma omp parallel` region, and
// its fix: with `epoch_barrier` between the write and the read phases the
// program is clean; without it, every cross-thread read is flagged.
TEST(OmpEpochCheck, OmpParallelRegionRaceAndFix) {
  if (ho::tsan_active()) {
    // This test opens a raw multi-threaded `omp parallel` region, whose
    // libgomp fork/join barriers TSan cannot see (false positives).
    GTEST_SKIP() << "libgomp teams are not TSan-instrumented";
  }
  constexpr unsigned kTeam = 4;
  for (const bool use_barrier : {true, false}) {
    ho::EpochChecker chk(kTeam);
    auto shadow = chk.attach("omp_slots");
    std::vector<std::uint32_t> slots(kTeam, 0);
    std::atomic<unsigned> ready{0};
    unsigned team = kTeam;

#pragma omp parallel num_threads(kTeam)
    {
      const auto tid = static_cast<unsigned>(omp_get_thread_num());
#pragma omp single
      team = static_cast<unsigned>(omp_get_num_threads());

      slots[tid] = tid + 1;
      chk.note_write(*shadow, tid, tid, 1);
      if (use_barrier) {
        chk.epoch_barrier(tid);
      } else {
        // Physically sequence the phases without a *protocol* barrier, so
        // the reads below are data-race-free yet still epoch-conflicting.
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < team) {
          std::this_thread::yield();
        }
      }
      std::uint32_t sum = 0;
      for (unsigned t = 0; t < team; ++t) sum += slots[t];
      chk.note_read(*shadow, tid, 0, team);
      EXPECT_EQ(sum, team * (team + 1) / 2);
    }

    if (team < 2) GTEST_SKIP() << "OpenMP provided a single thread";
    if (use_barrier) {
      EXPECT_EQ(chk.conflict_count(), 0u);
    } else {
      EXPECT_GE(chk.conflict_count(), 1u);
      const auto diags = chk.diagnostics();
      ASSERT_FALSE(diags.empty());
      EXPECT_EQ(diags.front().array, "omp_slots");
      EXPECT_EQ(diags.front().epoch, 1u);
    }
  }
}
#endif  // _OPENMP

TEST(OmpEpochCheck, AdvanceEpochAllOrdersForkJoinTransitions) {
  ho::EpochChecker chk(3);
  auto shadow = chk.attach("staged");
  // Parallel write epoch 1 (disjoint), join, serial full pass as thread 0
  // in epoch 2, fork, parallel read epoch 3: the components_omp shape.
  for (unsigned tid = 0; tid < 3; ++tid) chk.note_write(*shadow, tid, tid, 1);
  chk.advance_epoch_all();
  chk.note_write(*shadow, 0, 0, 3);
  chk.advance_epoch_all();
  EXPECT_EQ(chk.epoch(1), 3u);
  for (unsigned tid = 0; tid < 3; ++tid) chk.note_read(*shadow, tid, 0, 3);
  EXPECT_EQ(chk.conflict_count(), 0u);
  EXPECT_EQ(chk.check_count(), 3u + 3u + 9u);
}
