#include "histcc/omp/parallel_host.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <memory>
#include <vector>

#include "histcc/cc_seq/union_find.hpp"
#include "histcc/omp/epoch_check.hpp"
#include "histcc/util/require.hpp"

namespace histcc::omp {
namespace {

/// Run the raster-scan union pass over rows [row_begin, row_end), linking
/// each foreground pixel with its already-scanned neighbours.  When
/// `skip_up` is true the first row links only westwards (its upward
/// neighbours belong to another strip and are handled by the serial
/// boundary pass).
void scan_rows(const img::GreyImage& image, ccseq::DisjointSets& forest,
               std::uint32_t row_begin, std::uint32_t row_end, bool skip_up,
               ccseq::Connectivity conn, ccseq::ColourRule rule) {
  const std::uint32_t cols = image.width();
  const auto px = image.pixels();
  const bool eight = conn == ccseq::Connectivity::kEight;
  const bool same_colour = rule == ccseq::ColourRule::kSameColour;

  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    const bool link_up = i > 0 && !(skip_up && i == row_begin);
    for (std::uint32_t j = 0; j < cols; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * cols + j;
      const std::uint8_t colour = px[idx];
      if (colour == 0) continue;
      auto try_union = [&](std::size_t nidx) {
        if (px[nidx] == 0) return;
        if (same_colour && px[nidx] != colour) return;
        forest.unite(static_cast<std::uint32_t>(idx),
                     static_cast<std::uint32_t>(nidx));
      };
      if (j > 0) try_union(idx - 1);
      if (link_up) {
        try_union(idx - cols);
        if (eight) {
          if (j > 0) try_union(idx - cols - 1);
          if (j + 1 < cols) try_union(idx - cols + 1);
        }
      }
    }
  }
}

}  // namespace

img::LabelImage connected_components_omp(const img::GreyImage& image,
                                         ccseq::Connectivity conn,
                                         ccseq::ColourRule rule,
                                         unsigned threads) {
  const std::uint32_t rows = image.height();
  const std::uint32_t cols = image.width();
  img::require_labelable(rows, cols);  // the forest holds 32-bit indices
  img::LabelImage labels(rows, cols);
  if (image.empty()) return labels;

  ccseq::DisjointSets forest(static_cast<std::size_t>(rows) * cols);

#ifdef _OPENMP
  if (threads == 0) threads = backend_threads();
  // Explicit counts are requests, not guarantees: under TSan they shrink
  // to 1 like backend_threads() does (see tsan_active()).
  if (tsan_active()) threads = 1;
  // Every strip must span at least two rows so pass 1's "first row links
  // westwards only" rule keeps the strips' union-find updates disjoint.
  threads = std::min<unsigned>(threads, std::max(1u, rows / 2));
  std::vector<std::uint32_t> strip_begin(threads + 1);
  for (unsigned t = 0; t <= threads; ++t) {
    strip_begin[t] = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(rows) * t / threads);
  }

  const std::size_t total = static_cast<std::size_t>(rows) * cols;
  std::unique_ptr<EpochChecker> chk;
  std::shared_ptr<splitc::ArrayShadow> sh_parent;
  std::shared_ptr<splitc::ArrayShadow> sh_labels;
  if (epoch_check_enabled()) {
    chk = std::make_unique<EpochChecker>(threads);
    sh_parent = chk->attach("omp_cc_parent");
    sh_labels = chk->attach("omp_cc_labels");
  }

  // Pass 1 (parallel): each thread's unions touch only pixel indices in
  // its own rows, because the strip's first row links westwards only.
#pragma omp parallel num_threads(threads)
  {
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    scan_rows(image, forest, strip_begin[t], strip_begin[t + 1],
              /*skip_up=*/true, conn, rule);
    if (chk) {
      const std::size_t lo = static_cast<std::size_t>(strip_begin[t]) * cols;
      const std::size_t hi =
          static_cast<std::size_t>(strip_begin[t + 1]) * cols;
      chk->note_write(*sh_parent, t, lo, hi - lo);
    }
  }
  // The fork/join boundary is the barrier that publishes the strips.
  if (chk) chk->advance_epoch_all();

  // Pass 2 (serial): stitch the strip boundaries — re-scan just each
  // strip's first row with upward links enabled.
  for (unsigned t = 1; t < threads; ++t) {
    scan_rows(image, forest, strip_begin[t], strip_begin[t] + 1,
              /*skip_up=*/false, conn, rule);
  }
  if (chk) {
    // Boundary unions may relink roots anywhere; recorded as thread 0,
    // alone in its epoch (the other threads are joined).
    chk->note_write(*sh_parent, 0, 0, total);
    chk->advance_epoch_all();
  }

  // Pass 3 (parallel, read-only): resolve every pixel to its root.
  // Manual static ranges (equivalent to schedule(static)) so each
  // thread's label slice is explicit for the epoch annotation.
  const auto px = image.pixels();
  auto out = labels.pixels();
#pragma omp parallel num_threads(threads)
  {
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    const std::size_t lo = total * t / threads;
    const std::size_t hi = total * (t + 1) / threads;
    for (std::size_t i = lo; i < hi; ++i) {
      out[i] = px[i] == 0
                   ? ccseq::kBackgroundLabel
                   : forest.find_const(static_cast<std::uint32_t>(i)) + 1;
    }
    if (chk) {
      chk->note_read(*sh_parent, t, 0, total);
      chk->note_write(*sh_labels, t, lo, hi - lo);
    }
  }
  if (chk) chk->throw_if_conflicts();
#else
  (void)threads;
  scan_rows(image, forest, 0, rows, /*skip_up=*/false, conn, rule);
  const auto px = image.pixels();
  auto out = labels.pixels();
  for (std::size_t idx = 0; idx < px.size(); ++idx) {
    out[idx] = px[idx] == 0 ? ccseq::kBackgroundLabel
                            : forest.find(static_cast<std::uint32_t>(idx)) + 1;
  }
#endif
  return labels;
}

}  // namespace histcc::omp
