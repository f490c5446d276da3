// The paper's headline workload: connected components of a 512 x 512
// 256-grey-level DARPA Image Understanding Benchmark-style scene
// (Section 6, Figure 10), plus its histogram, with the per-phase trace
// report and the modeled cost on every machine the paper evaluated.
// Optionally writes the scene (PGM) and a false-colour labeling (PPM).
//
//   ./darpa_scene [n] [p] [--write]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "histcc/histcc.hpp"

int main(int argc, char** argv) {
  using namespace histcc;
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 512;
  const std::uint32_t p = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 16;
  const bool write = argc > 3 && std::strcmp(argv[3], "--write") == 0;

  std::printf("DARPA-style scene benchmark: %ux%u, 256 grey levels, p=%u\n",
              n, n, p);
  const auto scene = img::make_darpa_like(n);

  trace::Tracer phase_tracer;
  splitc::Machine machine(p);
  // Per-phase times come from the trace spans: the HISTCC_TRACE tracer
  // when one is requested, else a local one.
  machine.set_trace(trace::env_tracer());
  if (machine.tracer() == nullptr) machine.set_trace(&phase_tracer);
  const img::TileLayout layout(n, p);
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "scene_tiles");
  layout.scatter(scene, tiles);

  const auto counts = hist::histogram_parallel(machine, layout, tiles, 256);
  std::size_t used_levels = 0;
  for (const auto c : counts) used_levels += c != 0;
  std::printf("histogram: %zu of 256 levels used\n", used_levels);

  cc::CcOptions options;
  options.rule = ccseq::ColourRule::kSameColour;
  util::Timer timer;
  auto labels =
      cc::connected_components_parallel(machine, layout, tiles, options);
  const double wall = timer.seconds();

  auto sizes = ccseq::component_sizes(labels);
  std::printf("connected components: %zu components in %.3f ms wall "
              "(%zu merge phases)\n",
              sizes.size(), wall * 1e3,
              cc::merge_schedule({layout.grid_rows(), layout.grid_cols()})
                  .size());
  std::printf("  largest components (px):");
  for (std::size_t i = 0; i < sizes.size() && i < 5; ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(sizes[i].pixels));
  }
  std::printf("\n");

  const auto stats = machine.max_stats();
  std::printf("  BDM ledger (max/proc): %llu words, %llu batches, "
              "%llu barriers\n",
              static_cast<unsigned long long>(stats.words),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.barriers));
  std::printf("  modeled total time on the paper's machines "
              "(comm + comp):\n");
  for (const char* name : {"CM-5", "SP-1", "SP-2", "CS-2", "Paragon"}) {
    const auto prof = splitc::profile_by_name(name);
    std::printf("    %-8s %8.1f ms\n", name,
                (stats.modeled_comm_seconds(prof) +
                 stats.modeled_comp_seconds(prof)) *
                    1e3);
  }

  trace::write_phase_report(*machine.tracer(), splitc::host(), std::cout);

  if (write) {
    img::write_pgm_file("darpa_scene.pgm", scene);
    img::write_label_ppm_file("darpa_labels.ppm", labels);
    std::printf("wrote darpa_scene.pgm and darpa_labels.ppm\n");
  }
  return 0;
}
