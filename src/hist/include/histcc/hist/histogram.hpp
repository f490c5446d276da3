#ifndef HISTCC_HIST_HISTOGRAM_HPP
#define HISTCC_HIST_HISTOGRAM_HPP

/// \file histogram.hpp
/// Image histogramming (Section 4 of the paper).
///
/// Sequential: one pass, O(n^2 + k).
///
/// Local tally: `tally` is the step-1 kernel shared by the VM algorithm
/// and the OpenMP backend; `histogram_seq` keeps its own plain loop so it
/// stays an independent oracle for both.
///
/// Parallel (the paper's algorithm):
///   1. every processor tallies its q x r tile into a local array H_i[0..k);
///   2. a matrix transpose rearranges the tallies so all partial counts of
///      each grey level land on one processor — a truncated transpose when
///      k < p (one row per processor P_0..P_{k-1}), a k/p-row transpose
///      when k >= p;
///   3. each receiving processor combines its partial counts locally, O(k);
///   4. processor P_0 collects the k bars with a circular prefetch.
/// Tcomm <= 2(tau + k), Tcomp = O(n^2/p + k) — independent of n in the
/// communication term, which Figure 11 demonstrates and our benches check.
///
/// Counts are 32-bit: the largest image the paper uses (4096 x 4096) has
/// n^2 = 2^24 pixels, far below 2^32.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "histcc/image/image.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/spread.hpp"

namespace histcc::hist {

/// Trace span names of the four steps, in execution order — the single
/// source of truth shared by the kernel's TRACE_SCOPE sites, the
/// Fig. 11 bench's step table, and the trace tests, so the live trace
/// breakdown and the bench report always list the same steps.  A tracer
/// attached to the machine (trace::Tracer) is how callers time the steps:
/// tally and combine are computation, transpose and gather communication,
/// as in the computation-vs-communication plots of Figure 11.
inline constexpr std::array<const char*, 4> kHistStepSpans = {
    "hist/tally", "hist/transpose", "hist/combine", "hist/gather"};

/// Add the k-bar histogram of `pixels` into `counts[0..k)` (the bars are
/// added to, not overwritten).  Four interleaved private 256-bin
/// sub-tables, no per-pixel branch; after the pass one check that every
/// bar >= k stayed empty (contract_error "pixel value exceeds grey-level
/// count" otherwise, with `counts` untouched).  k must be a power of two
/// in [2, 256] and `counts` must hold at least k bars.  O(len + 256).
void tally(std::span<const std::uint8_t> pixels,
           std::span<std::uint32_t> counts, std::uint32_t k);

/// One-pass sequential histogram; the baseline for efficiency numbers.
/// k must be a power of two in [2, 256]; every pixel must be < k.
[[nodiscard]] std::vector<std::uint32_t> histogram_seq(
    const img::GreyImage& image, std::uint32_t k);

/// The paper's parallel histogramming algorithm over an already-distributed
/// image.  Collective: call from the host; it runs an SPMD program on
/// `machine`.  Returns H[0..k), the histogram as assembled on processor 0.
/// `tiles` must hold the image distributed per `layout`.
[[nodiscard]] std::vector<std::uint32_t> histogram_parallel(
    splitc::Machine& machine, const img::TileLayout& layout,
    splitc::Spread<std::uint8_t>& tiles, std::uint32_t k);

/// Convenience wrapper: distribute `image` over `machine` and histogram it.
[[nodiscard]] std::vector<std::uint32_t> histogram_parallel(
    splitc::Machine& machine, const img::GreyImage& image, std::uint32_t k);

}  // namespace histcc::hist

#endif  // HISTCC_HIST_HISTOGRAM_HPP
