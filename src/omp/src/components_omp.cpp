#include "histcc/omp/parallel_host.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <exception>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "histcc/cc/border_graph.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/omp/epoch_check.hpp"
#include "histcc/util/require.hpp"

namespace histcc::omp {
namespace {

/// Link every strip's last row to the next strip's first row by the scan's
/// overlap rule, union by smaller label, and return the (stale -> final)
/// change table sorted by stale label.  Each strip root carries its first
/// pixel's canonical label, so the smallest label of a joined set is the
/// set's canonical label.
std::vector<cc::ChangePair> merge_seams(std::span<ccseq::TileRuns> tables,
                                ccseq::Connectivity conn,
                                ccseq::ColourRule rule) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
  for (std::size_t s = 1; s < tables.size(); ++s) {
    ccseq::TileRuns& upper = tables[s - 1];
    ccseq::TileRuns& lower = tables[s];
    const std::uint32_t last = upper.rows() - 1;
    const auto above_labels = upper.row_entries(last);
    const auto row_labels = lower.row_entries(0);
    ccseq::for_each_touching(
        upper.row_runs(last), lower.row_runs(0), conn, rule,
        [&](std::uint32_t c, std::uint32_t j) {
          links.emplace_back(above_labels[j], row_labels[c]);
        });
  }
  // Every linked label once, sorted: a set's smallest index is its
  // smallest label.
  std::vector<std::uint32_t> keys;
  keys.reserve(2 * links.size());
  for (const auto& [a, b] : links) {
    keys.push_back(a);
    keys.push_back(b);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const auto key = [&keys](std::uint32_t label) {
    return static_cast<std::uint32_t>(
        std::lower_bound(keys.begin(), keys.end(), label) - keys.begin());
  };
  ccseq::DisjointSets sets(keys.size());
  for (const auto& [a, b] : links) sets.unite(key(a), key(b));
  std::vector<cc::ChangePair> changes;
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    const std::uint32_t root = sets.find(k);
    if (root != k) changes.push_back(cc::ChangePair{keys[k], keys[root]});
  }
  return changes;
}

}  // namespace

img::LabelImage connected_components_omp(const img::GreyImage& image,
                                         ccseq::Connectivity conn,
                                         ccseq::ColourRule rule,
                                         unsigned threads) {
  const std::uint32_t rows = image.height();
  const std::uint32_t cols = image.width();
  img::require_labelable(rows, cols);  // labels are 1 + a 32-bit index
  img::LabelImage labels(rows, cols);
  if (image.empty()) return labels;

#ifdef _OPENMP
  if (threads == 0) threads = backend_threads();
  // Explicit counts are requests, not guarantees: under TSan they shrink
  // to 1 like backend_threads() does (see tsan_active()).
  if (tsan_active()) threads = 1;
#else
  threads = 1;
#endif
  // One row strip per thread; a one-row strip is still a valid run scan.
  const unsigned strips = std::min(threads, rows);
  std::vector<std::uint32_t> strip_begin(strips + 1);
  for (unsigned s = 0; s <= strips; ++s) {
    strip_begin[s] = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(rows) * s / strips);
  }
  const auto px = image.pixels();
  const auto out = labels.pixels();
  const auto strip_lo = [&](unsigned s) {
    return static_cast<std::size_t>(strip_begin[s]) * cols;
  };
  const auto strip_len = [&](unsigned s) {
    return strip_lo(s + 1) - strip_lo(s);
  };

  std::unique_ptr<EpochChecker> chk;
  std::shared_ptr<splitc::ArrayShadow> sh_tables;
  std::shared_ptr<splitc::ArrayShadow> sh_labels;
  std::shared_ptr<splitc::ArrayShadow> sh_changes;
  if (epoch_check_enabled()) {
    chk = std::make_unique<EpochChecker>(strips);
    sh_tables = chk->attach("omp_cc_tables");  // one TileRuns per strip
    sh_labels = chk->attach("omp_cc_labels");  // holds the tables until fill
    sh_changes = chk->attach("omp_cc_changes");
  }

  // Pass 1, per strip: the run scan, with the strip's slice of the output
  // lent as table storage, then resolve on global rows, so every strip
  // root carries the canonical label of its first pixel.
  std::vector<ccseq::TileRuns> tables(strips);
  std::vector<std::exception_ptr> failed(strips);
  const auto scan_strip = [&](unsigned s) {
    const std::uint32_t row0 = strip_begin[s];
    try {
      tables[s].scan(px.subspan(strip_lo(s), strip_len(s)),
                     strip_begin[s + 1] - row0, cols, conn, rule,
                     out.subspan(strip_lo(s), strip_len(s)));
      tables[s].resolve([row0, cols](std::uint32_t i, std::uint32_t j) {
        return (row0 + i) * cols + j + 1;
      });
    } catch (...) {
      failed[s] = std::current_exception();
    }
  };
#ifdef _OPENMP
  // Strips are dealt round-robin, so a team smaller than requested (a
  // nested region, a thread limit) still covers every strip.
#pragma omp parallel num_threads(strips)
  {
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    const auto team = static_cast<unsigned>(omp_get_num_threads());
    for (unsigned s = t; s < strips; s += team) {
      scan_strip(s);
      if (chk) {
        chk->note_write(*sh_tables, t, s, 1);
        chk->note_write(*sh_labels, t, strip_lo(s), strip_len(s));
      }
    }
  }
#else
  scan_strip(0);
#endif
  for (const auto& error : failed) {
    if (error) std::rethrow_exception(error);
  }
  // The fork/join boundary is the barrier that publishes the strips.
  if (chk) chk->advance_epoch_all();

  // Pass 2 (serial): merge the seams into one change table.
  const std::vector<cc::ChangePair> changes = merge_seams(tables, conn, rule);
  if (chk) {
    // Recorded as thread 0, alone in its epoch: row_runs reuses every
    // table's scratch, and the links read the seam rows' table entries.
    chk->note_write(*sh_tables, 0, 0, strips);
    for (unsigned s = 1; s < strips; ++s) {
      for (const auto entries :
           {tables[s - 1].row_entries(tables[s - 1].rows() - 1),
            tables[s].row_entries(0)}) {
        chk->note_read(*sh_labels, 0,
                       static_cast<std::size_t>(entries.data() - out.data()),
                       entries.size());
      }
    }
    chk->note_write(*sh_changes, 0, 0, changes.size());
    chk->advance_epoch_all();
  }

  // Pass 3, per strip: one fill writes every pixel once, applying the
  // change table once per run.
  const auto fill_strip = [&](unsigned s) {
    // Runs of one component often follow each other: cache the last search.
    std::uint32_t last_label = 0;
    std::uint32_t last_result = 0;
    ccseq::TileRuns& table = tables[s];
    table.fill(out.subspan(strip_lo(s), strip_len(s)), 0, table.rows(),
               [&](std::uint32_t label) {
                 if (label != last_label) {
                   last_label = label;
                   last_result = cc::apply_changes(changes, label);
                 }
                 return last_result;
               });
  };
#ifdef _OPENMP
#pragma omp parallel num_threads(strips)
  {
    const auto t = static_cast<unsigned>(omp_get_thread_num());
    const auto team = static_cast<unsigned>(omp_get_num_threads());
    for (unsigned s = t; s < strips; s += team) {
      fill_strip(s);
      if (chk) {
        chk->note_read(*sh_changes, t, 0, changes.size());
        chk->note_write(*sh_tables, t, s, 1);
        chk->note_write(*sh_labels, t, strip_lo(s), strip_len(s));
      }
    }
  }
#else
  fill_strip(0);
#endif
  if (chk) chk->throw_if_conflicts();
  return labels;
}

}  // namespace histcc::omp
