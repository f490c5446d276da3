#ifndef HISTCC_CC_SEQ_BFS_LABEL_HPP
#define HISTCC_CC_SEQ_BFS_LABEL_HPP

/// \file bfs_label.hpp
/// The paper's sequential connected-components labeler (Section 5.1),
/// kept as the library's independent test oracle.
///
/// Pixels are examined in row-major order; each unmarked foreground pixel
/// seeds a breadth-first search that labels every like-coloured connected
/// pixel with a label derived from the seed's position.  Because the seed
/// is the first component pixel in scan order, the resulting labeling is
/// the canonical one described in common.hpp.  Runs in O(|V| + |E|) =
/// O(rows * cols).
///
/// Production code labels with the faster union-find scan
/// (union_find.hpp `label_tile`); this BFS shares no code with it, so the
/// differential suites compare two independent algorithms.

#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"

namespace histcc::ccseq {

/// Label a whole image with the canonical labeling (common.hpp).
[[nodiscard]] img::LabelImage label_components_bfs(
    const img::GreyImage& image, Connectivity conn = Connectivity::kEight,
    ColourRule rule = ColourRule::kBinary);

}  // namespace histcc::ccseq

#endif  // HISTCC_CC_SEQ_BFS_LABEL_HPP
