#ifndef HISTCC_OMP_PARALLEL_HOST_HPP
#define HISTCC_OMP_PARALLEL_HOST_HPP

/// \file parallel_host.hpp
/// Shared-memory (OpenMP) implementations of the paper's two primitives.
///
/// The splitc runtime exists to *reproduce* the paper's distributed-memory
/// execution and cost model; these functions exist to be *used*: on a
/// modern multicore host, histogramming and connected components are
/// shared-memory problems, and the natural implementations below are what
/// a downstream user should call for raw wall-clock speed.  They are also
/// the harness's modern comparator: bench_host compares them against the
/// virtual machine running the paper's algorithms on the same images.
///
/// Both produce bit-identical results to the sequential references (the
/// canonical labeling / exact counts), so the test suite cross-checks
/// them against every other implementation.  They degrade gracefully to
/// serial execution when built without OpenMP.

#include <cstdint>
#include <vector>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"

#if defined(__SANITIZE_THREAD__)
#define HISTCC_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HISTCC_TSAN_ACTIVE 1
#endif
#endif
#ifndef HISTCC_TSAN_ACTIVE
#define HISTCC_TSAN_ACTIVE 0
#endif

namespace histcc::omp {

/// True when this build is instrumented by ThreadSanitizer.  libgomp is
/// not TSan-instrumented, so TSan cannot see the fork/join barriers of
/// `#pragma omp parallel` regions and reports false races between phases
/// that are correctly barrier-separated.  The backend therefore runs
/// single-threaded under TSan (num_threads is a request OpenMP may
/// legitimately shrink); thread-level verification of the OpenMP
/// algorithms is the epoch checker's job (epoch_check.hpp), which runs
/// with real teams in every non-TSan preset.
[[nodiscard]] constexpr bool tsan_active() noexcept {
  return HISTCC_TSAN_ACTIVE != 0;
}

/// Number of threads the OpenMP backend will use (1 when built serially
/// or under ThreadSanitizer — see tsan_active()).
[[nodiscard]] unsigned backend_threads() noexcept;

/// Histogram with per-thread tallies + parallel reduction.  Same contract
/// as hist::histogram_seq (k a power of two in [2, 256], pixels < k).
/// `threads` sets the team size explicitly — 0 means backend_threads();
/// any count (including non-powers-of-two and oversubscription) gives
/// bit-identical results.  Explicit counts are requests: under TSan the
/// team shrinks to 1 (see tsan_active()).  When the epoch checker is enabled
/// (epoch_check.hpp) the run self-verifies its barrier discipline.
[[nodiscard]] std::vector<std::uint32_t> histogram_omp(
    const img::GreyImage& image, std::uint32_t k, unsigned threads = 0);

/// Connected components by strip-parallel run scans (Gupta et al.'s
/// two-pass CCL on strips):
///   1. the image is cut into horizontal strips, one per thread; each
///      thread scans its strip with the run labeler the VM uses
///      (ccseq::TileRuns), storing the run table in its own slice of the
///      output, and resolves it on global rows, so every strip component
///      carries the canonical label of its first pixel;
///   2. a short serial pass links each strip's last row to the next
///      strip's first row by the scan's overlap rule, union by smaller
///      label, into one sorted (stale -> final) change table;
///   3. one parallel fill per strip writes every pixel once, applying the
///      change table once per run.
/// The smallest label of a joined set is its first pixel's, so the output
/// equals ccseq::label_components_* exactly.  `threads` sets the team
/// size explicitly (0 = backend_threads()); the count is clamped to the
/// row count (a one-row strip is a valid scan), and shrinks to 1 under
/// TSan (see tsan_active()).  A team smaller than requested, as in a
/// nested parallel region, still labels every strip.  When the epoch
/// checker is enabled (epoch_check.hpp) the run self-verifies its
/// barrier discipline.
[[nodiscard]] img::LabelImage connected_components_omp(
    const img::GreyImage& image,
    ccseq::Connectivity conn = ccseq::Connectivity::kEight,
    ccseq::ColourRule rule = ccseq::ColourRule::kBinary,
    unsigned threads = 0);

}  // namespace histcc::omp

#endif  // HISTCC_OMP_PARALLEL_HOST_HPP
