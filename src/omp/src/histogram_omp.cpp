#include "histcc/omp/parallel_host.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <exception>
#include <memory>
#include <span>

#include "histcc/hist/histogram.hpp"
#include "histcc/omp/epoch_check.hpp"
#include "histcc/util/math.hpp"
#include "histcc/util/require.hpp"

namespace histcc::omp {

unsigned backend_threads() noexcept {
#ifdef _OPENMP
  if (tsan_active()) return 1;
  return static_cast<unsigned>(omp_get_max_threads());
#else
  return 1;
#endif
}

std::vector<std::uint32_t> histogram_omp(const img::GreyImage& image,
                                         std::uint32_t k, unsigned threads) {
  HISTCC_REQUIRE(k >= 2 && k <= 256 && util::is_pow2(k),
                 "grey-level count must be a power of two in [2, 256]");
  const auto px = image.pixels();
  std::vector<std::uint32_t> counts(k, 0);
#ifdef _OPENMP
  // Explicit counts are requests, not guarantees: under TSan they shrink
  // to 1 like backend_threads() does (see tsan_active()).
  const unsigned nt =
      tsan_active() ? 1 : (threads == 0 ? backend_threads() : threads);
  // Flat per-thread tallies: thread t owns [t*k, (t+1)*k).  Epoch
  // structure is the paper's publication discipline verbatim: tally into
  // your own block, barrier, reduce everyone's blocks.
  std::vector<std::uint32_t> partial(static_cast<std::size_t>(nt) * k, 0);
  // An exception must not leave the parallel region: each thread parks
  // its tally's contract_error here and the host rethrows after the join.
  std::vector<std::exception_ptr> failed(nt);

  std::unique_ptr<EpochChecker> chk;
  std::shared_ptr<splitc::ArrayShadow> sh_partial;
  std::shared_ptr<splitc::ArrayShadow> sh_counts;
  if (epoch_check_enabled()) {
    chk = std::make_unique<EpochChecker>(nt);
    sh_partial = chk->attach("omp_hist_partial");
    sh_counts = chk->attach("omp_hist_counts");
  }

#pragma omp parallel num_threads(nt)
  {
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    // A contiguous static slice of the pixels per thread; tally keeps its
    // sub-tables private and writes this thread's k bars once.
    const std::size_t lo = px.size() * t / nt;
    const std::size_t hi = px.size() * (t + 1) / nt;
    try {
      hist::tally(px.subspan(lo, hi - lo),
                  std::span(partial).subspan(static_cast<std::size_t>(t) * k,
                                             k),
                  k);
    } catch (...) {
      failed[t] = std::current_exception();
    }
    // Publish the tallies: epoch_barrier is the team barrier when the
    // checker runs, a plain omp barrier otherwise.
    if (chk) {
      chk->note_write(*sh_partial, t, static_cast<std::size_t>(t) * k, k);
      chk->epoch_barrier(t);
    } else {
#pragma omp barrier
    }
    // Parallel reduction over grey levels: thread t combines column g of
    // every tally block for its slice of [0, k).  Manual static ranges so
    // the slice is explicit for the epoch annotation.
    const std::uint32_t g_begin = k * t / nt;
    const std::uint32_t g_end = k * (t + 1) / nt;
    for (std::uint32_t g = g_begin; g < g_end; ++g) {
      std::uint32_t sum = 0;
      for (unsigned tt = 0; tt < nt; ++tt) {
        sum += partial[static_cast<std::size_t>(tt) * k + g];
      }
      counts[g] = sum;
    }
    if (chk) {
      chk->note_read(*sh_partial, t, 0, partial.size());
      chk->note_write(*sh_counts, t, g_begin, g_end - g_begin);
    }
  }
  for (const auto& error : failed) {
    if (error) std::rethrow_exception(error);
  }
  if (chk) chk->throw_if_conflicts();
#else
  (void)threads;
  hist::tally(px, counts, k);
#endif
  return counts;
}

}  // namespace histcc::omp
