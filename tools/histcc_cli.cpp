// histcc — command-line driver for the library.
//
//   histcc generate  --kind <pattern>   --n 512 [--seed S] [--occ 0.6]
//                    [--beta 0.4] [--k 256] --out image.pgm
//   histcc histogram --in image.pgm     --k 256 --p 16 [--phases]
//   histcc components --in image.pgm    --p 16 [--conn 8] [--rule grey]
//                    [--algo merge|prop|replicated] [--stats]
//                    [--labels out.ppm]
//   histcc equalize  --in image.pgm     --k 256 --p 16 --out equalized.pgm
//   histcc morph     --in image.pgm     --op erode|dilate|open|close
//                    [--p 16] [--se 8] --out cleaned.pgm
//   histcc info      --in image.pgm
//
// `--kind` is one of the nine catalog names (horizontal-bars,
// vertical-bars, forward-diagonal, backward-diagonal, cross, disc,
// concentric-circles, four-squares, dual-spiral) or darpa, percolation,
// ising, random, banded.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "histcc/histcc.hpp"

namespace {

using namespace histcc;

/// Tiny --flag value parser: every option is `--name value` except the
/// boolean switches listed in kSwitches.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::fprintf(stderr, "histcc: unexpected argument '%s'\n",
                     key.c_str());
        std::exit(2);
      }
      key = key.substr(2);
      if (is_switch(key)) {
        // std::string(1, '1') rather than = "1": the const char* assignment
        // path trips GCC 12's -Wrestrict false positive (PR105329).
        values_[key] = std::string(1, '1');
      } else if (i + 1 < argc) {
        values_[key] = argv[++i];
      } else {
        std::fprintf(stderr, "histcc: option --%s needs a value\n",
                     key.c_str());
        std::exit(2);
      }
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::string require(const std::string& key) const {
    const auto v = get(key);
    if (!v) {
      std::fprintf(stderr, "histcc: missing required option --%s\n",
                   key.c_str());
      std::exit(2);
    }
    return *v;
  }

  [[nodiscard]] std::uint32_t get_u32(const std::string& key,
                                      std::uint32_t fallback) const {
    const auto v = get(key);
    return v ? static_cast<std::uint32_t>(std::strtoul(v->c_str(), nullptr, 10))
             : fallback;
  }

  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto v = get(key);
    return v ? std::strtod(v->c_str(), nullptr) : fallback;
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return values_.contains(key);
  }

 private:
  static bool is_switch(const std::string& key) {
    return key == "phases" || key == "stats";
  }
  std::map<std::string, std::string> values_;
};

img::GreyImage generate_image(const std::string& kind, const Args& args) {
  const std::uint32_t n = args.get_u32("n", 512);
  const std::uint64_t seed = args.get_u32("seed", 42);
  for (int id = 1; id <= img::kNumTestPatterns; ++id) {
    const auto pattern = static_cast<img::TestPattern>(id);
    if (kind == img::pattern_name(pattern)) {
      return img::make_test_pattern(pattern, n);
    }
  }
  if (kind == "darpa") return img::make_darpa_like(n, seed);
  if (kind == "percolation") {
    return img::make_percolation(n, args.get_double("occ", 0.6), seed);
  }
  if (kind == "ising") {
    return img::make_ising(n, args.get_double("beta", 0.4407), 5, seed);
  }
  if (kind == "random") {
    return img::make_random_grey(n, args.get_u32("k", 256), seed);
  }
  if (kind == "banded") {
    return img::make_banded_grey(n, args.get_u32("k", 256));
  }
  std::fprintf(stderr, "histcc: unknown image kind '%s'\n", kind.c_str());
  std::exit(2);
}

img::GreyImage load_input(const Args& args) {
  if (const auto kind = args.get("kind")) {
    return generate_image(*kind, args);
  }
  return img::read_pgm_file(args.require("in"));
}

/// Honour the HISTCC_TRACE environment variable (docs/tracing.md) on
/// every machine the CLI builds: HISTCC_TRACE=out.json writes a
/// Chrome/Perfetto trace at exit, any other truthy value prints the
/// per-phase report to stderr, unset/off attaches nothing.
void attach_env_trace(splitc::Machine& machine) {
  machine.set_trace(trace::env_tracer());
}

int cmd_generate(const Args& args) {
  const auto image = generate_image(args.require("kind"), args);
  img::write_pgm_file(args.require("out"), image);
  std::printf("wrote %ux%u image to %s\n", image.height(), image.width(),
              args.require("out").c_str());
  return 0;
}

int cmd_histogram(const Args& args) {
  const auto image = load_input(args);
  const std::uint32_t k = args.get_u32("k", 256);
  const std::uint32_t p = args.get_u32("p", 16);
  trace::Tracer phase_tracer;
  splitc::Machine machine(p);
  attach_env_trace(machine);
  const bool phases = args.has("phases");
  // --phases reads the kernel's trace spans: from the HISTCC_TRACE tracer
  // when one is attached, else from a local one.
  if (phases && machine.tracer() == nullptr) machine.set_trace(&phase_tracer);
  const auto counts = hist::histogram_parallel(machine, image, k);
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  std::printf("histogram of %ux%u image, k=%u, p=%u (%llu pixels)\n",
              image.height(), image.width(), k, p,
              static_cast<unsigned long long>(total));
  for (std::uint32_t g = 0; g < k; ++g) {
    if (counts[g] != 0) std::printf("%4u %u\n", g, counts[g]);
  }
  if (phases) {
    trace::write_phase_report(*machine.tracer(), splitc::host(), std::cout);
  }
  return 0;
}

int cmd_components(const Args& args) {
  const auto image = load_input(args);
  const std::uint32_t p = args.get_u32("p", 16);
  const auto conn = args.get_u32("conn", 8) == 4 ? ccseq::Connectivity::kFour
                                                 : ccseq::Connectivity::kEight;
  const auto rule = args.get("rule").value_or("binary") == std::string("grey")
                        ? ccseq::ColourRule::kSameColour
                        : ccseq::ColourRule::kBinary;
  const auto algo = args.get("algo").value_or("merge");

  splitc::Machine machine(p);
  attach_env_trace(machine);
  util::Timer timer;
  img::LabelImage labels;
  if (algo == "merge") {
    cc::CcOptions options;
    options.connectivity = conn;
    options.rule = rule;
    labels = cc::connected_components_parallel(machine, image, options);
  } else if (algo == "prop") {
    cc::LabelPropStats lp;
    labels = cc::connected_components_label_prop(machine, image, conn, rule,
                                                 &lp);
    std::printf("label propagation converged in %u rounds\n", lp.rounds);
  } else if (algo == "replicated") {
    labels = cc::connected_components_replicated(machine, image, conn, rule);
  } else if (algo == "omp") {
    labels = omp::connected_components_omp(image, conn, rule);
  } else {
    std::fprintf(stderr, "histcc: unknown --algo '%s'\n", algo.c_str());
    return 2;
  }
  const double wall = timer.seconds();

  const auto sizes = ccseq::component_sizes(labels);
  std::printf("%zu components in %.2f ms (p=%u, %s, %u-connectivity)\n",
              sizes.size(), wall * 1e3, p,
              rule == ccseq::ColourRule::kSameColour ? "grey" : "binary",
              conn == ccseq::Connectivity::kFour ? 4 : 8);
  const auto stats = machine.max_stats();
  std::printf("BDM ledger (max/proc): %llu words, %llu batches, %llu "
              "barriers\n",
              static_cast<unsigned long long>(stats.words),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.barriers));

  if (args.has("stats")) {
    auto object_stats = cc::component_stats_parallel(machine, image, labels);
    std::sort(object_stats.begin(), object_stats.end(),
              [](const ccseq::ComponentStats& a,
                 const ccseq::ComponentStats& b) { return a.pixels > b.pixels; });
    std::printf("%-8s %-6s %-9s %-22s %-16s\n", "label", "grey", "area",
                "bbox", "centroid");
    for (std::size_t i = 0; i < object_stats.size() && i < 20; ++i) {
      const auto& s = object_stats[i];
      std::printf("%-8u %-6u %-9llu (%u,%u)-(%u,%u) (%.1f,%.1f)\n", s.label,
                  s.colour, static_cast<unsigned long long>(s.pixels),
                  s.min_row, s.min_col, s.max_row, s.max_col,
                  s.centroid_row(), s.centroid_col());
    }
  }
  if (const auto out = args.get("labels")) {
    img::write_label_ppm_file(*out, labels);
    std::printf("wrote false-colour labeling to %s\n", out->c_str());
  }
  return 0;
}

int cmd_equalize(const Args& args) {
  const auto image = load_input(args);
  const std::uint32_t k = args.get_u32("k", 256);
  const std::uint32_t p = args.get_u32("p", 16);
  splitc::Machine machine(p);
  attach_env_trace(machine);
  const img::TileLayout layout(image.height(), image.width(), p);
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes());
  layout.scatter(image, tiles);
  hist::equalize_parallel(machine, layout, tiles, k);
  img::write_pgm_file(args.require("out"), layout.gather(tiles));
  std::printf("equalized (k=%u, p=%u) -> %s\n", k, p,
              args.require("out").c_str());
  return 0;
}

int cmd_morph(const Args& args) {
  const auto image = load_input(args);
  const auto op = args.require("op");
  const std::uint32_t p = args.get_u32("p", 16);
  const auto element = args.get_u32("se", 8) == 4
                           ? morph::Structuring::kCross
                           : morph::Structuring::kSquare;
  img::GreyImage result;
  if (op == "open") {
    result = morph::open(image, element);
  } else if (op == "close") {
    result = morph::close(image, element);
  } else if (op == "erode" || op == "dilate") {
    // Single-step operations run on the virtual machine.
    splitc::Machine machine(p);
    attach_env_trace(machine);
    const img::TileLayout layout(image.height(), image.width(), p);
    splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes());
    splitc::Spread<std::uint8_t> out(machine, layout.tile_sizes());
    layout.scatter(image, tiles);
    if (op == "erode") {
      morph::erode_parallel(machine, layout, tiles, out, element);
    } else {
      morph::dilate_parallel(machine, layout, tiles, out, element);
    }
    result = layout.gather(out);
  } else {
    std::fprintf(stderr, "histcc: unknown --op '%s'\n", op.c_str());
    return 2;
  }
  img::write_pgm_file(args.require("out"), result);
  std::size_t fg = 0;
  for (const auto px : result.pixels()) fg += px != 0;
  std::printf("%s (3x3 %s) -> %s (%zu foreground px)\n", op.c_str(),
              element == morph::Structuring::kCross ? "cross" : "square",
              args.require("out").c_str(), fg);
  return 0;
}

int cmd_info(const Args& args) {
  const auto image = load_input(args);
  const auto counts = hist::histogram_seq(image, 256);
  std::uint32_t used = 0, max_level = 0;
  std::uint64_t foreground = 0;
  for (std::uint32_t g = 0; g < 256; ++g) {
    if (counts[g] != 0) {
      ++used;
      max_level = g;
      if (g > 0) foreground += counts[g];
    }
  }
  std::printf("%ux%u image: %u grey levels used (max %u), %llu foreground "
              "pixels (%.1f%%)\n",
              image.height(), image.width(), used, max_level,
              static_cast<unsigned long long>(foreground),
              100.0 * static_cast<double>(foreground) /
                  static_cast<double>(image.size()));
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage: histcc "
               "<generate|histogram|components|equalize|morph|info> "
               "[--opt value ...]\n"
               "see the header of tools/histcc_cli.cpp for the full list\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  try {
    if (command == "generate") return cmd_generate(args);
    if (command == "histogram") return cmd_histogram(args);
    if (command == "components") return cmd_components(args);
    if (command == "equalize") return cmd_equalize(args);
    if (command == "morph") return cmd_morph(args);
    if (command == "info") return cmd_info(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "histcc: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
