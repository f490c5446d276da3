#include "inputs.hpp"

#include <cinttypes>
#include <cstdio>

#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/equalize.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

/// Derive an independent generator seed per input from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

img::GreyImage crop(const img::GreyImage& source, Shape shape) {
  img::GreyImage out(shape.height, shape.width);
  for (std::uint32_t i = 0; i < shape.height; ++i) {
    for (std::uint32_t j = 0; j < shape.width; ++j) out(i, j) = source(i, j);
  }
  return out;
}

Frame cc_frame(std::string name, img::GreyImage image,
               ccseq::ColourRule rule) {
  Frame f;
  f.name = std::move(name);
  f.rule = rule;
  f.labels = ccseq::label_components_unionfind(
      image, ccseq::Connectivity::kEight, rule);
  f.image = std::move(image);
  return f;
}

Frame hist_frame(std::string name, img::GreyImage image, std::uint32_t k) {
  Frame f;
  f.name = std::move(name);
  f.k = k;
  f.hist = histcc::hist::histogram_seq(image, k);
  f.image = std::move(image);
  return f;
}

template <typename T>
std::uint64_t hash_of(const std::vector<T>& v) {
  return fnv1a(v.data(), v.size() * sizeof(T));
}
template <typename T>
std::uint64_t hash_of(const img::Image<T>& im) {
  const std::uint32_t dims[2] = {im.height(), im.width()};
  return fnv1a(im.pixels().data(), im.size() * sizeof(T),
               fnv1a(dims, sizeof(dims)));
}
std::uint64_t hash_of(const std::vector<ccseq::ComponentStats>& stats) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& s : stats) {
    const std::uint64_t fields[9] = {
        s.label,   s.colour,  s.pixels,
        s.min_row, s.min_col, s.max_row,
        s.max_col, static_cast<std::uint64_t>(s.sum_row),
        static_cast<std::uint64_t>(s.sum_col)};
    h = fnv1a(fields, sizeof(fields), h);
  }
  return h;
}

void print_line(const std::string& name, std::uint64_t input,
                std::uint64_t oracle, std::uint64_t& combined) {
  std::printf("# hash %-28s input=%016" PRIx64 " oracle=%016" PRIx64 "\n",
              name.c_str(), input, oracle);
  const std::uint64_t both[2] = {input, oracle};
  combined = fnv1a(both, sizeof(both), combined);
}

const char* kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kHistogram: return "histogram";
    case JobKind::kEqualize: return "equalize";
    case JobKind::kComponents: return "components";
    case JobKind::kStats: return "stats";
  }
  return "unknown";
}

}  // namespace

std::vector<Frame> make_cc_frames(std::uint64_t seed) {
  constexpr std::uint32_t n = 1024;
  std::vector<Frame> frames;
  frames.push_back(cc_frame("darpa_same_colour",
                            img::make_darpa_like(n, mix(seed, 1)),
                            ccseq::ColourRule::kSameColour));
  frames.push_back(cc_frame("percolation_0.59",
                            img::make_percolation(n, 0.59, mix(seed, 2)),
                            ccseq::ColourRule::kBinary));
  frames.push_back(cc_frame(
      "dual_spiral",
      img::make_test_pattern(img::TestPattern::kDualSpiral, n),
      ccseq::ColourRule::kBinary));
  return frames;
}

std::vector<Frame> make_hist_frames(std::uint64_t seed) {
  constexpr std::uint32_t n = 2048;
  std::vector<Frame> frames;
  frames.push_back(
      hist_frame("darpa_k256", img::make_darpa_like(n, mix(seed, 3)), 256));
  frames.push_back(hist_frame("random_k256",
                              img::make_random_grey(n, 256, mix(seed, 4)),
                              256));
  frames.push_back(hist_frame("random_k16",
                              img::make_random_grey(n, 16, mix(seed, 5)), 16));
  return frames;
}

std::vector<JobInput> make_serve_inputs(std::uint64_t seed) {
  constexpr std::uint32_t side = 640;  // covers every shape
  std::vector<JobInput> inputs(kJobKinds.size() * kServeShapes.size() *
                               kServeVariants);
  for (std::size_t kind = 0; kind < kJobKinds.size(); ++kind) {
    for (std::uint32_t v = 0; v < kServeVariants; ++v) {
      const std::uint64_t s = mix(seed, 100 + kind * kServeVariants + v);
      // Histogram and equalize jobs get a DARPA-like scene quantized to
      // k = 16 levels; components jobs a binary percolation lattice;
      // stats jobs a binarized DARPA-like scene.
      img::GreyImage source;
      switch (kJobKinds[kind]) {
        case JobKind::kHistogram:
        case JobKind::kEqualize:
          source = img::make_darpa_like(side, s);
          for (auto& px : source.pixels()) {
            px = static_cast<std::uint8_t>(px / (256 / kServeK));
          }
          break;
        case JobKind::kComponents:
          source = img::make_percolation(side, 0.45, s);
          break;
        case JobKind::kStats:
          source = img::make_darpa_like(side, s);
          for (auto& px : source.pixels()) px = px >= 128 ? 1 : 0;
          break;
      }
      for (std::size_t shape = 0; shape < kServeShapes.size(); ++shape) {
        JobInput& in = inputs[serve_index(kind, shape, v)];
        in.kind = kJobKinds[kind];
        in.shape = kServeShapes[shape];
        in.variant = v;
        in.image = crop(source, in.shape);
        switch (in.kind) {
          case JobKind::kHistogram:
            in.hist = histcc::hist::histogram_seq(in.image, kServeK);
            break;
          case JobKind::kEqualize:
            in.equalized = histcc::hist::equalize(in.image, kServeK);
            break;
          case JobKind::kComponents:
            in.labels = ccseq::label_components_unionfind(in.image);
            break;
          case JobKind::kStats:
            in.stats = ccseq::component_stats(
                in.image, ccseq::label_components_unionfind(in.image));
            break;
        }
      }
    }
  }
  return inputs;
}

bool same_stats(const std::vector<ccseq::ComponentStats>& got,
                const std::vector<ccseq::ComponentStats>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    // Centroid sums are sums of small integers, exact in a double.
    if (a.label != b.label || a.colour != b.colour || a.pixels != b.pixels ||
        a.min_row != b.min_row || a.min_col != b.min_col ||
        a.max_row != b.max_row || a.max_col != b.max_col ||
        a.sum_row != b.sum_row || a.sum_col != b.sum_col) {
      return false;
    }
  }
  return true;
}

void print_hashes(const std::vector<Frame>& frames) {
  std::uint64_t combined = fnv1a(nullptr, 0);
  for (const Frame& f : frames) {
    print_line(f.name, hash_of(f.image),
               f.k > 0 ? hash_of(f.hist) : hash_of(f.labels), combined);
  }
  std::printf("# inputs_hash %016" PRIx64 "\n", combined);
}

void print_hashes(const std::vector<JobInput>& inputs) {
  std::uint64_t combined = fnv1a(nullptr, 0);
  for (const JobInput& in : inputs) {
    std::uint64_t oracle = 0;
    switch (in.kind) {
      case JobKind::kHistogram: oracle = hash_of(in.hist); break;
      case JobKind::kEqualize: oracle = hash_of(in.equalized); break;
      case JobKind::kComponents: oracle = hash_of(in.labels); break;
      case JobKind::kStats: oracle = hash_of(in.stats); break;
    }
    const std::string name = std::string(kind_name(in.kind)) + "/" +
                             std::to_string(in.shape.height) + "x" +
                             std::to_string(in.shape.width) + "/v" +
                             std::to_string(in.variant);
    print_line(name, hash_of(in.image), oracle, combined);
  }
  std::printf("# inputs_hash %016" PRIx64 "\n", combined);
}

}  // namespace perfbench
