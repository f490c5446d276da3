// Seeded inputs of the three workloads, their oracle outputs (computed
// once, at generation, with the sequential reference code), and the
// checkers that compare a result with its oracle.
#ifndef HISTCC_PERFBENCH_INPUTS_HPP
#define HISTCC_PERFBENCH_INPUTS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "histcc/cc_seq/analysis.hpp"
#include "histcc/cc_seq/common.hpp"
#include "histcc/image/image.hpp"

namespace perfbench {

namespace img = histcc::img;
namespace ccseq = histcc::ccseq;

/// One frame of a frame workload with its oracle output.
struct Frame {
  std::string name;
  img::GreyImage image;
  ccseq::ColourRule rule = ccseq::ColourRule::kBinary;  ///< frame_cc
  std::uint32_t k = 0;                                  ///< frame_hist
  img::LabelImage labels;           ///< frame_cc oracle: union-find labels
  std::vector<std::uint32_t> hist;  ///< frame_hist oracle: histogram_seq
};

/// frame_cc: 1024 x 1024 DARPA-like (same-colour rule), percolation at
/// 0.59 occupancy and the dual spiral (binary), all 8-connected.
[[nodiscard]] std::vector<Frame> make_cc_frames(std::uint64_t seed);

/// frame_hist: 2048 x 2048 DARPA-like (k = 256) and random grey at
/// k = 256 and k = 16.
[[nodiscard]] std::vector<Frame> make_hist_frames(std::uint64_t seed);

/// The four job kinds of serve_mix.
enum class JobKind : std::uint8_t { kHistogram, kEqualize, kComponents, kStats };
inline constexpr std::array<JobKind, 4> kJobKinds = {
    JobKind::kHistogram, JobKind::kEqualize, JobKind::kComponents,
    JobKind::kStats};

struct Shape {
  std::uint32_t height;
  std::uint32_t width;
};
/// Height x width.  64 x 64 takes the pipeline's sequential route.
inline constexpr std::array<Shape, 5> kServeShapes = {
    Shape{64, 64}, Shape{128, 128}, Shape{320, 240}, Shape{512, 256},
    Shape{640, 480}};
/// Grey levels of histogram and equalize jobs.
inline constexpr std::uint32_t kServeK = 16;
/// Seeded images per (kind, shape).
inline constexpr std::uint32_t kServeVariants = 3;

/// One serve_mix input with the oracle output of its kind.
struct JobInput {
  JobKind kind = JobKind::kHistogram;
  Shape shape{0, 0};
  std::uint32_t variant = 0;
  img::GreyImage image;
  std::vector<std::uint32_t> hist;           ///< kHistogram: histogram_seq
  img::GreyImage equalized;                  ///< kEqualize: equalize
  img::LabelImage labels;                    ///< kComponents: union-find
  std::vector<ccseq::ComponentStats> stats;  ///< kStats: component_stats
};

/// Every (kind, shape, variant) input, at index serve_index(...).
[[nodiscard]] std::vector<JobInput> make_serve_inputs(std::uint64_t seed);
[[nodiscard]] constexpr std::size_t serve_index(std::size_t kind,
                                                std::size_t shape,
                                                std::size_t variant) {
  return (kind * kServeShapes.size() + shape) * kServeVariants + variant;
}

/// Oracle check of a stats result, field by field (histograms and images
/// compare with ==).
[[nodiscard]] bool same_stats(const std::vector<ccseq::ComponentStats>& got,
                              const std::vector<ccseq::ComponentStats>& want);

/// Print one provenance line per input (hash of the pixels and of the
/// oracle output) and a combined hash over all of them.
void print_hashes(const std::vector<Frame>& frames);
void print_hashes(const std::vector<JobInput>& inputs);

}  // namespace perfbench

#endif  // HISTCC_PERFBENCH_INPUTS_HPP
