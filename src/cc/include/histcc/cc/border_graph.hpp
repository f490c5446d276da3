#ifndef HISTCC_CC_BORDER_GRAPH_HPP
#define HISTCC_CC_BORDER_GRAPH_HPP

/// \file border_graph.hpp
/// The group manager's merge computation (Section 5.3).
///
/// The merge of two region labelings is converted into connected
/// components of a graph over the two border strips (one pixel line per
/// side).  Vertices are the coloured border pixels.  Two edge types:
///   1. after radix-sorting each side by label, consecutive same-label
///      pixels are chained ("edges strung linearly down the list"), so all
///      occurrences of one label form one graph component;
///   2. like-coloured pixels adjacent *across* the border are linked —
///      positions i <-> i for 4-connectivity, i <-> {i-1, i, i+1} for
///      8-connectivity.
/// Each vertex has at most five incident edges, exactly as the paper
/// argues.  The paper labels the graph with a sequential BFS; here a flat
/// union-find over the 2s vertices (no per-vertex adjacency lists) finds
/// the same components.  Every component keeps its minimum label (which
/// preserves the library-wide canonical labeling), and every other label
/// in the component yields a change pair (alpha -> beta).  Procedure 1
/// (radix sort by alpha + unique scan) produces the sorted change array
/// the clients consume.

#include <cstdint>
#include <span>
#include <vector>

#include "histcc/cc_seq/common.hpp"

namespace histcc::cc {

/// A label change: every border pixel labeled `alpha` must become `beta`
/// (beta < alpha always, since merges keep minimum labels).
struct ChangePair {
  std::uint32_t alpha;  ///< obsolete label
  std::uint32_t beta;   ///< replacement label
  friend bool operator==(const ChangePair&, const ChangePair&) = default;
};

/// One side of the border to be merged: pixel colours and current labels in
/// positional order along the border (top-to-bottom for a vertical border,
/// left-to-right for a horizontal one).
struct BorderSide {
  std::span<const std::uint8_t> pixels;
  std::span<const std::uint32_t> labels;
};

/// A pre-sorted permutation of one side: indices of the coloured pixels
/// ordered by label.  The shadow manager computes this for its side and
/// ships it to the group manager (Section 5.3); `sort_side_by_label` is
/// that computation.
[[nodiscard]] std::vector<std::uint32_t> sort_side_by_label(
    const BorderSide& side);

/// Build the border graph from the two sides and their label-sorted
/// permutations, find its connected components (union-find), and return
/// the sorted unique change array (Procedure 1).  `lo` is the left/upper
/// side, `hi` the right/lower side; both must have equal length.
[[nodiscard]] std::vector<ChangePair> merge_border(
    const BorderSide& lo, std::span<const std::uint32_t> lo_sorted,
    const BorderSide& hi, std::span<const std::uint32_t> hi_sorted,
    ccseq::Connectivity conn, ccseq::ColourRule rule);

/// Convenience overload that sorts both sides itself (used when the shadow
/// manager optimization is disabled).
[[nodiscard]] std::vector<ChangePair> merge_border(
    const BorderSide& lo, const BorderSide& hi, ccseq::Connectivity conn,
    ccseq::ColourRule rule);

/// Binary-search `label` in the alpha-sorted `changes`; returns the
/// replacement, or `label` itself when unchanged.
[[nodiscard]] std::uint32_t apply_changes(
    std::span<const ChangePair> changes, std::uint32_t label) noexcept;

}  // namespace histcc::cc

#endif  // HISTCC_CC_BORDER_GRAPH_HPP
