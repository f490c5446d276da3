#include "histcc/cc/border_graph.hpp"

#include <algorithm>

#include "histcc/cc_seq/union_find.hpp"
#include "histcc/sortutil/radix.hpp"
#include "histcc/util/require.hpp"

namespace histcc::cc {
namespace {

/// Record used to sort coloured border pixels by label.
struct LabelPos {
  std::uint32_t label;
  std::uint32_t pos;
};

/// Chain consecutive same-label entries of a label-sorted side (edge type 1).
void add_chain_edges(ccseq::DisjointSets& sets, const BorderSide& side,
                     std::span<const std::uint32_t> sorted,
                     std::uint32_t vertex_base) {
  for (std::size_t s = 1; s < sorted.size(); ++s) {
    const std::uint32_t prev = sorted[s - 1];
    const std::uint32_t cur = sorted[s];
    if (side.labels[prev] == side.labels[cur]) {
      sets.unite(vertex_base + prev, vertex_base + cur);
    }
  }
}

}  // namespace

std::vector<std::uint32_t> sort_side_by_label(const BorderSide& side) {
  HISTCC_REQUIRE(side.pixels.size() == side.labels.size(),
                 "border side pixel/label length mismatch");
  std::vector<LabelPos> records;
  records.reserve(side.pixels.size());
  for (std::uint32_t i = 0; i < side.pixels.size(); ++i) {
    if (side.pixels[i] != 0) {
      records.push_back(LabelPos{side.labels[i], i});
    }
  }
  sortutil::hybrid_sort_by(records,
                           [](const LabelPos& r) { return r.label; });
  std::vector<std::uint32_t> sorted;
  sorted.reserve(records.size());
  for (const auto& r : records) sorted.push_back(r.pos);
  return sorted;
}

std::vector<ChangePair> merge_border(const BorderSide& lo,
                                     std::span<const std::uint32_t> lo_sorted,
                                     const BorderSide& hi,
                                     std::span<const std::uint32_t> hi_sorted,
                                     ccseq::Connectivity conn,
                                     ccseq::ColourRule rule) {
  HISTCC_REQUIRE(lo.pixels.size() == hi.pixels.size(),
                 "border sides must have equal length");
  HISTCC_REQUIRE(lo.pixels.size() == lo.labels.size() &&
                     hi.pixels.size() == hi.labels.size(),
                 "border side pixel/label length mismatch");
  const std::size_t s = lo.pixels.size();
  const auto side_len = static_cast<std::uint32_t>(s);
  // The graph's components as a flat disjoint-set forest over the 2s
  // vertices: coloured pixel i of the lo side is vertex i, of the hi side
  // s + i; background vertices stay singletons.
  ccseq::DisjointSets sets(2 * s);

  // Edge type 1: same-label chains within each side.
  add_chain_edges(sets, lo, lo_sorted, 0);
  add_chain_edges(sets, hi, hi_sorted, side_len);

  // Edge type 2: like-coloured pixels adjacent across the border.
  const bool eight = conn == ccseq::Connectivity::kEight;
  const bool same_colour = rule == ccseq::ColourRule::kSameColour;
  for (std::uint32_t i = 0; i < s; ++i) {
    if (lo.pixels[i] == 0) continue;
    auto link = [&](std::uint32_t j) {
      if (hi.pixels[j] == 0) return;
      if (same_colour && hi.pixels[j] != lo.pixels[i]) return;
      sets.unite(i, side_len + j);
    };
    if (eight && i > 0) link(i - 1);
    link(i);
    if (eight && i + 1 < s) link(i + 1);
  }

  // Every graph component keeps its minimum label; each other label in it
  // yields a change.
  auto each_coloured = [&](auto&& visit) {
    for (std::uint32_t i = 0; i < s; ++i) {
      if (lo.pixels[i] != 0) visit(i, lo.labels[i]);
      if (hi.pixels[i] != 0) visit(side_len + i, hi.labels[i]);
    }
  };
  std::vector<std::uint32_t> min_label(2 * s, UINT32_MAX);  // at roots
  each_coloured([&](std::uint32_t v, std::uint32_t label) {
    std::uint32_t& m = min_label[sets.find(v)];
    m = std::min(m, label);
  });
  std::vector<ChangePair> raw_changes;
  each_coloured([&](std::uint32_t v, std::uint32_t label) {
    const std::uint32_t rep = min_label[sets.find(v)];
    if (label != rep) raw_changes.push_back(ChangePair{label, rep});
  });

  // Procedure 1: radix sort the pairs by alpha, scan out unique pairs.
  sortutil::hybrid_sort_by(raw_changes,
                           [](const ChangePair& c) { return c.alpha; });
  std::vector<ChangePair> changes;
  changes.reserve(raw_changes.size());
  for (const auto& c : raw_changes) {
    if (changes.empty() || changes.back().alpha != c.alpha) {
      changes.push_back(c);
    } else {
      // All occurrences of one alpha live in one graph component, so they
      // must agree on beta.
      HISTCC_ASSERT(changes.back().beta == c.beta);
    }
  }
  return changes;
}

std::vector<ChangePair> merge_border(const BorderSide& lo,
                                     const BorderSide& hi,
                                     ccseq::Connectivity conn,
                                     ccseq::ColourRule rule) {
  const auto lo_sorted = sort_side_by_label(lo);
  const auto hi_sorted = sort_side_by_label(hi);
  return merge_border(lo, lo_sorted, hi, hi_sorted, conn, rule);
}

std::uint32_t apply_changes(std::span<const ChangePair> changes,
                            std::uint32_t label) noexcept {
  auto it = std::lower_bound(
      changes.begin(), changes.end(), label,
      [](const ChangePair& c, std::uint32_t value) { return c.alpha < value; });
  if (it != changes.end() && it->alpha == label) return it->beta;
  return label;
}

}  // namespace histcc::cc
