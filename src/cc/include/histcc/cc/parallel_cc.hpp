#ifndef HISTCC_CC_PARALLEL_CC_HPP
#define HISTCC_CC_PARALLEL_CC_HPP

/// \file parallel_cc.hpp
/// The paper's parallel connected-components algorithm (Sections 5 and 6).
///
/// Structure (binary and grey-level images share all of it; only the
/// colour rule differs):
///   1. *Initialization* (5.1): each processor labels its own q x r tile
///      with the sequential union-find scan labeler (the paper uses BFS;
///      any local labeler fits), using the globally unique initial labels
///      (I*q + i)*n + (J*r + j) + 1, and creates its tile hooks
///      (Procedure 2).
///   2. *log p merge iterations* (5.2-5.4), alternating horizontal and
///      vertical merges.  In each, the group manager (with its shadow
///      manager across the border) fetches the two border strips, sorts
///      them by label, solves the border-graph connected-components
///      problem, and publishes the sorted change array; every group member
///      then updates only its tile-border labels by binary search.
///   3. *Total consistency update*: after the last merge, each processor
///      turns its changed hooks into one change table and relabels its
///      stale interiors in a single linear pass.
///
/// The labeling returned is the library-wide canonical one (see
/// cc_seq/common.hpp), so it equals the sequential labelers' output
/// pixel-for-pixel — the test suite checks exactly that.
///
/// Options expose the paper's implementation choices as ablations:
/// shadow manager on/off, eq. (9) transpose-based change distribution vs
/// naive direct fetch, and limited (borders-only) vs full per-iteration
/// relabeling.

#include <cstdint>

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/splitc/machine.hpp"
#include "histcc/splitc/spread.hpp"

namespace histcc::cc {

/// Algorithm variants.  Defaults reproduce the paper's algorithm.
struct CcOptions {
  ccseq::Connectivity connectivity = ccseq::Connectivity::kEight;
  ccseq::ColourRule rule = ccseq::ColourRule::kBinary;
  /// Use the shadow manager to fetch/sort the far side of each border
  /// (Section 5.3).  Off: the group manager does both sides itself.
  bool use_shadow_manager = true;
  /// Distribute change arrays with the transpose-based scheme of eq. (9).
  /// Off: every client fetches the whole list from the manager directly
  /// (the paper's "not optimal for large p" variant of Section 5.4).
  bool eq9_distribution = true;
  /// Ablation of the paper's core novelty: relabel every tile pixel in
  /// every merge iteration instead of only border pixels + final update.
  bool full_relabel_each_phase = false;
};

/// Run the parallel algorithm over an already-distributed image, leaving
/// the labeling distributed in `labels` (one tile block per processor,
/// matching `layout`).  This is the primitive the other overloads wrap;
/// use it to keep a pipeline distributed (e.g. followed by
/// component_stats_parallel).  Collective: call from the host.
void connected_components_parallel(splitc::Machine& machine,
                                   const img::TileLayout& layout,
                                   splitc::Spread<std::uint8_t>& tiles,
                                   splitc::Spread<std::uint32_t>& labels,
                                   const CcOptions& options = {});

/// Run the parallel algorithm over an already-distributed image; returns
/// the assembled labeling.  Collective: call from the host.
[[nodiscard]] img::LabelImage connected_components_parallel(
    splitc::Machine& machine, const img::TileLayout& layout,
    splitc::Spread<std::uint8_t>& tiles, const CcOptions& options = {});

/// Convenience wrapper: distribute `image` over `machine` and label it.
[[nodiscard]] img::LabelImage connected_components_parallel(
    splitc::Machine& machine, const img::GreyImage& image,
    const CcOptions& options = {});

}  // namespace histcc::cc

#endif  // HISTCC_CC_PARALLEL_CC_HPP
