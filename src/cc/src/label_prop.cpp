#include "histcc/cc/label_prop.hpp"

#include <vector>

#include "histcc/cc_seq/union_find.hpp"
#include "histcc/trace/trace.hpp"
#include "histcc/util/require.hpp"

namespace histcc::cc {
namespace {

/// Packed halo line layout per processor: [north r][south r][west q][east q],
/// in each rank's *own* tile shape (ragged layout: offsets differ per rank,
/// so pulls compute the neighbour's offsets from the neighbour's geometry).
struct LineOffsets {
  std::size_t north, south, west, east, total;
};
LineOffsets line_offsets(std::uint32_t q, std::uint32_t r) {
  return LineOffsets{0, r, 2ull * r, 2ull * r + q, 2ull * r + 2ull * q};
}

}  // namespace

img::LabelImage connected_components_label_prop(splitc::Machine& machine,
                                                const img::TileLayout& layout,
                                                splitc::Spread<std::uint8_t>& tiles,
                                                ccseq::Connectivity conn,
                                                ccseq::ColourRule rule,
                                                LabelPropStats* stats) {
  HISTCC_REQUIRE(tiles.nprocs() == machine.nprocs() &&
                     layout.spread_fits(tiles),
                 "tiles spread does not fit layout (Spread '" +
                     tiles.name() + "')");
  const std::uint32_t p = machine.nprocs();
  const std::uint32_t v = layout.grid_rows();
  const std::uint32_t w = layout.grid_cols();
  // Per-rank line capacity: each rank packs its four border lines in its
  // *own* tile shape, so rank r needs exactly 2*(q_r + r_r) slots (packed
  // mode allocates just that; strided pads to the max).
  std::vector<std::size_t> line_sizes(p);
  for (std::uint32_t rank = 0; rank < p; ++rank) {
    line_sizes[rank] =
        line_offsets(layout.tile_rows(rank), layout.tile_cols(rank)).total;
  }

  splitc::Spread<std::uint32_t> labels(machine, layout.tile_sizes(),
                                       "labels");
  splitc::Spread<std::uint32_t> line_lb(machine, line_sizes, "line_lb");
  splitc::Spread<std::uint8_t> line_px(machine, line_sizes, "line_px");
  splitc::Spread<std::uint32_t> flags(machine, 1, "flags");

  std::uint32_t rounds = 0;

  machine.run([&](splitc::Proc& self) {
    const std::uint32_t rank = self.rank();
    const std::uint32_t q = layout.tile_rows(rank);
    const std::uint32_t r = layout.tile_cols(rank);
    const bool nonempty = q > 0 && r > 0;
    const auto lines = line_offsets(q, r);
    const std::uint32_t gi = layout.proc_row(rank);
    const std::uint32_t gj = layout.proc_col(rank);
    auto my_px = tiles.local(self);

    // Local components: comp_id per pixel (1-based; 0 = background) and the
    // current (monotonically decreasing) label per component.
    std::vector<std::uint32_t> comp_id(layout.tile_size(rank));
    std::vector<std::uint32_t> comp_labels;
    if (nonempty) {
      TRACE_SCOPE(self, "cc/prop_init");
      std::uint32_t next_id = 0;
      ccseq::label_tile(
          my_px, std::span<std::uint32_t>(comp_id), q, r, conn, rule,
          [&](std::uint32_t i, std::uint32_t j) {
            comp_labels.push_back(layout.initial_label(rank, i, j));
            return ++next_id;
          });
      self.charge_ops(12 * layout.tile_size(rank));  // tile labeling, as
                                                     // in parallel_cc
    }
    auto current_label = [&](std::size_t idx) -> std::uint32_t {
      return comp_id[idx] == 0 ? 0 : comp_labels[comp_id[idx] - 1];
    };

    // Halo ring of (q+2) x (r+2); we only ever read its outer ring.
    const std::uint32_t hq = q + 2;
    const std::uint32_t hr = r + 2;
    std::vector<std::uint32_t> halo_lb(static_cast<std::size_t>(hq) * hr);
    std::vector<std::uint8_t> halo_px(static_cast<std::size_t>(hq) * hr);
    auto halo_at = [&](std::uint32_t i, std::uint32_t j) -> std::size_t {
      return static_cast<std::size_t>(i) * hr + j;
    };

    const bool eight = conn == ccseq::Connectivity::kEight;
    const bool same_colour = rule == ccseq::ColourRule::kSameColour;

    for (;;) {
      TRACE_SCOPE(self, "cc/prop_round");
      // Step 1: pack my four border lines with current labels (empty tiles
      // have no lines to publish but still join every barrier below).
      if (nonempty) {
        auto plb = line_lb.local(self);
        auto ppx = line_px.local(self);
        for (std::uint32_t j = 0; j < r; ++j) {
          plb[lines.north + j] = current_label(j);
          ppx[lines.north + j] = my_px[j];
          const std::size_t s = static_cast<std::size_t>(q - 1) * r + j;
          plb[lines.south + j] = current_label(s);
          ppx[lines.south + j] = my_px[s];
        }
        for (std::uint32_t i = 0; i < q; ++i) {
          const std::size_t west = static_cast<std::size_t>(i) * r;
          plb[lines.west + i] = current_label(west);
          ppx[lines.west + i] = my_px[west];
          plb[lines.east + i] = current_label(west + r - 1);
          ppx[lines.east + i] = my_px[west + r - 1];
        }
        // race-ledger epoch annotations
        line_lb.note_local_write(self);
        line_px.note_local_write(self);
      }
      self.barrier();  // publish lines (and, on later rounds, order flag
                       // reads before this round's flag writes)

      // Step 2: pull facing lines from the 4 (+4 diagonal) neighbours into
      // the halo ring.
      std::fill(halo_lb.begin(), halo_lb.end(), 0u);
      std::fill(halo_px.begin(), halo_px.end(), std::uint8_t{0});
      // Offsets into a neighbour's packed lines use *its* tile shape; a
      // pull is skipped when either side is empty (an empty neighbour is
      // the image edge).  Facing lines match in length because grid
      // rows/columns share tile_rows/tile_cols.
      auto nbr_lines = [&](std::uint32_t nbr) {
        return line_offsets(layout.tile_rows(nbr), layout.tile_cols(nbr));
      };
      auto pull_line = [&](std::uint32_t nbr, std::size_t src_off,
                           std::size_t len, std::uint32_t hi,
                           std::uint32_t hj, bool row_dir) {
        if (layout.tile_size(nbr) == 0) return;
        // Fetch into temporaries, then place along a halo row or column.
        std::vector<std::uint32_t> tmp_lb(len);
        std::vector<std::uint8_t> tmp_px(len);
        line_lb.prefetch(self, tmp_lb, nbr, src_off, len);
        line_px.prefetch(self, tmp_px, nbr, src_off, len);
        for (std::size_t s = 0; s < len; ++s) {
          const std::size_t slot = row_dir
                                       ? halo_at(hi, hj + static_cast<std::uint32_t>(s))
                                       : halo_at(hi + static_cast<std::uint32_t>(s), hj);
          halo_lb[slot] = tmp_lb[s];
          halo_px[slot] = tmp_px[s];
        }
      };
      if (nonempty) {
        if (gi > 0) {
          const std::uint32_t nbr = layout.rank_at(gi - 1, gj);
          pull_line(nbr, nbr_lines(nbr).south, r, 0, 1, true);
        }
        if (gi + 1 < v) {
          const std::uint32_t nbr = layout.rank_at(gi + 1, gj);
          pull_line(nbr, nbr_lines(nbr).north, r, q + 1, 1, true);
        }
        if (gj > 0) {
          const std::uint32_t nbr = layout.rank_at(gi, gj - 1);
          pull_line(nbr, nbr_lines(nbr).east, q, 1, 0, false);
        }
        if (gj + 1 < w) {
          const std::uint32_t nbr = layout.rank_at(gi, gj + 1);
          pull_line(nbr, nbr_lines(nbr).west, q, 1, r + 1, false);
        }
        if (eight) {
          if (gi > 0 && gj > 0) {
            const std::uint32_t nbr = layout.rank_at(gi - 1, gj - 1);
            pull_line(nbr, nbr_lines(nbr).south + layout.tile_cols(nbr) - 1,
                      1, 0, 0, true);
          }
          if (gi > 0 && gj + 1 < w) {
            const std::uint32_t nbr = layout.rank_at(gi - 1, gj + 1);
            pull_line(nbr, nbr_lines(nbr).south, 1, 0, r + 1, true);
          }
          if (gi + 1 < v && gj > 0) {
            const std::uint32_t nbr = layout.rank_at(gi + 1, gj - 1);
            pull_line(nbr, nbr_lines(nbr).north + layout.tile_cols(nbr) - 1,
                      1, q + 1, 0, true);
          }
          if (gi + 1 < v && gj + 1 < w) {
            const std::uint32_t nbr = layout.rank_at(gi + 1, gj + 1);
            pull_line(nbr, nbr_lines(nbr).north, 1, q + 1, r + 1, true);
          }
        }
      }
      self.sync();

      // Step 3: relax every border pixel against its remote neighbours.
      bool changed = false;
      auto relax = [&](std::uint32_t i, std::uint32_t j) {
        const std::size_t idx = static_cast<std::size_t>(i) * r + j;
        const std::uint8_t colour = my_px[idx];
        if (colour == 0) return;
        const std::uint32_t cid = comp_id[idx] - 1;
        for (int di = -1; di <= 1; ++di) {
          for (int dj = -1; dj <= 1; ++dj) {
            if (di == 0 && dj == 0) continue;
            if (!eight && di != 0 && dj != 0) continue;
            const std::int64_t ni = static_cast<std::int64_t>(i) + di;
            const std::int64_t nj = static_cast<std::int64_t>(j) + dj;
            if (ni >= 0 && ni < q && nj >= 0 && nj < r) continue;  // local
            const std::size_t slot =
                halo_at(static_cast<std::uint32_t>(ni + 1),
                        static_cast<std::uint32_t>(nj + 1));
            const std::uint8_t ncolour = halo_px[slot];
            if (ncolour == 0) continue;
            if (same_colour && ncolour != colour) continue;
            const std::uint32_t nlabel = halo_lb[slot];
            if (nlabel != 0 && nlabel < comp_labels[cid]) {
              comp_labels[cid] = nlabel;
              changed = true;
            }
          }
        }
      };
      if (nonempty) {
        for (std::uint32_t j = 0; j < r; ++j) {
          relax(0, j);
          if (q > 1) relax(q - 1, j);
        }
        for (std::uint32_t i = 1; i + 1 < q; ++i) {
          relax(i, 0);
          if (r > 1) relax(i, r - 1);
        }
        self.charge_ops(2ull * 9 * (q + r));  // up to 8 neighbours +
                                              // bookkeeping
      }
      // Every rank (empty tiles included: changed == false) votes, so the
      // fixpoint read below sees a fresh word from all p processors.
      flags.local(self)[0] = changed ? 1u : 0u;
      flags.note_local_write(self, 0, 1);  // race-ledger epoch annotation
      self.barrier();  // publish flags

      // Step 4: global fixpoint test (every processor reads all flags).
      bool any_changed = false;
      for (std::uint32_t t = 0; t < p; ++t) {
        if (flags.get(self, t, 0) != 0) {
          any_changed = true;
        }
      }
      self.sync();
      if (rank == 0) ++rounds;
      if (!any_changed) break;
    }

    // Materialize the final labeling.
    auto out = labels.local(self);
    const std::size_t count = layout.tile_size(rank);
    for (std::size_t idx = 0; idx < count; ++idx) {
      out[idx] = current_label(idx);
    }
    if (count > 0) {
      labels.note_local_write(self);  // race-ledger epoch annotation
    }
    self.barrier();
  });

  if (stats != nullptr) stats->rounds = rounds;
  return layout.gather(labels);
}

img::LabelImage connected_components_label_prop(splitc::Machine& machine,
                                                const img::GreyImage& image,
                                                ccseq::Connectivity conn,
                                                ccseq::ColourRule rule,
                                                LabelPropStats* stats) {
  const img::TileLayout layout(image.height(), image.width(),
                               machine.nprocs());
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "prop_tiles");
  layout.scatter(image, tiles);
  return connected_components_label_prop(machine, layout, tiles, conn, rule,
                                         stats);
}

}  // namespace histcc::cc
