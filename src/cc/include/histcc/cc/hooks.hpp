#ifndef HISTCC_CC_HOOKS_HPP
#define HISTCC_CC_HOOKS_HPP

/// \file hooks.hpp
/// Tile hooks and the paper's drastically-limited label updating.
///
/// The key novelty of the paper's connected-components algorithm is that
/// merge iterations never relabel tile interiors: each processor keeps one
/// *hook* per local component that touches its tile border — the
/// component's initial label plus the offset of one of its border pixels
/// (Procedure 2, Figure 5).  During the log p merges only border-pixel
/// labels are kept current (binary search over the change array); after
/// the final merge the hooks whose border pixel now carries a different
/// label form one small change table, applied to the stale interiors in a
/// single linear pass — the "total consistency update at the final step".

#include <cstdint>
#include <span>
#include <vector>

#include "histcc/cc/border_graph.hpp"
#include "histcc/cc_seq/common.hpp"

namespace histcc::cc {

/// One hook: a component's initial label and the tile offset of one of its
/// border pixels.
struct TileHook {
  std::uint32_t label;   ///< label the component had after initialization
  std::uint32_t offset;  ///< row-major tile offset of a border pixel of it
  friend bool operator==(const TileHook&, const TileHook&) = default;
};

/// Row-major offsets of every pixel on the boundary of a rows x cols tile
/// (each corner once).
[[nodiscard]] std::vector<std::uint32_t> tile_border_offsets(
    std::uint32_t rows, std::uint32_t cols);

/// Procedure 2: one hook per distinct label among the coloured border
/// pixels of the tile, sorted by label (radix sort + unique scan).
[[nodiscard]] std::vector<TileHook> make_tile_hooks(
    std::span<const std::uint8_t> pixels, std::span<const std::uint32_t> labels,
    std::span<const std::uint32_t> border_offsets);

/// Per-merge-iteration update: binary search each coloured border pixel's
/// label in the alpha-sorted change array and replace it.  O(B log C) for
/// B border pixels and C changes.
void update_border_labels(std::span<std::uint32_t> labels,
                          std::span<const std::uint8_t> pixels,
                          std::span<const std::uint32_t> border_offsets,
                          std::span<const ChangePair> changes);

/// Ablation variant: relabel *every* tile pixel against the change array —
/// what the paper's "drastically limited updating" avoids.  O(qr log C).
void update_all_labels(std::span<std::uint32_t> labels,
                       std::span<const std::uint8_t> pixels,
                       std::span<const ChangePair> changes);

/// Final total-consistency update: every hook whose border pixel now
/// carries a label different from the hook's yields the change
/// (hook label -> current label), and one `update_all_labels` pass applies
/// that table to the whole tile.  Initial labels are unique per component,
/// and a final label equal to an in-tile initial label means that
/// component kept its label, so no final label is a key of the table:
/// changes never chain and pixels that are already final stay put.
/// O(qr log H) for H hooks.
void relabel_interior(std::span<std::uint32_t> labels,
                      std::span<const std::uint8_t> pixels,
                      std::span<const TileHook> hooks);

}  // namespace histcc::cc

#endif  // HISTCC_CC_HOOKS_HPP
