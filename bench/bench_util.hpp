#ifndef HISTCC_BENCH_UTIL_HPP
#define HISTCC_BENCH_UTIL_HPP

/// \file bench_util.hpp
/// Shared helpers for the paper-reproduction benchmark binaries.
///
/// Every table/figure bench reports two kinds of numbers:
///   * wall  — wall-clock seconds measured on this host (p virtual
///             processors on however many cores are available); meaningful
///             for relative comparisons at fixed p only;
///   * model — the BDM-modeled execution time obtained by replaying the
///             communication/computation ledger of the run against a
///             MachineProfile of one of the paper's machines.  This is the
///             number whose *shape* should match the paper's figures.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "histcc/histcc.hpp"

namespace histcc::bench {

// Every number a bench reports must be immune to NTP steps and clock
// slews: the harness timers and the tracer must share one steady clock.
static_assert(util::Timer::clock::is_steady,
              "bench timings require a steady clock");

/// Mean and best wall-clock seconds over `reps` runs of `fn`.
struct Timing {
  double mean_s;
  double min_s;
};

template <typename Fn>
Timing sample(int reps, Fn&& fn) {
  double total = 0;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    util::Timer timer;
    fn();
    const double s = timer.seconds();
    total += s;
    if (s < best) best = s;
  }
  return Timing{total / reps, best};
}

/// Best-of timings for several sub-millisecond calls, measured in
/// interleaved rounds: each round gives every row `budget_s / rounds`
/// seconds of back-to-back calls (at least one).  A best-of-3 of such a
/// call swings by tens of percent between runs of one binary; hundreds of
/// calls per row settle on its floor, and spreading them over the rounds
/// keeps a slow spell of the host (a co-tenant, cache or frequency
/// noise) from covering all the calls of one row.
class Rounds {
 public:
  /// Add a row; `setup` (optional) runs untimed before every call of
  /// `fn`.  Returns the row's index for timing().
  std::size_t add(std::function<void()> fn,
                  std::function<void()> setup = {}) {
    rows_.push_back(Row{std::move(fn), std::move(setup), 0.0, 1e300, 0});
    return rows_.size() - 1;
  }

  void run(int rounds, double budget_s) {
    const double slice_s = budget_s / rounds;
    for (int round = 0; round < rounds; ++round) {
      for (auto& row : rows_) {
        const util::Timer slice;
        do {
          if (row.setup) row.setup();
          util::Timer timer;
          row.fn();
          const double s = timer.seconds();
          row.total_s += s;
          if (s < row.best_s) row.best_s = s;
          ++row.calls;
        } while (slice.seconds() < slice_s);
      }
    }
  }

  [[nodiscard]] Timing timing(std::size_t row) const {
    const Row& r = rows_[row];
    return Timing{r.total_s / static_cast<double>(r.calls), r.best_s};
  }

 private:
  struct Row {
    std::function<void()> fn;
    std::function<void()> setup;
    double total_s;
    double best_s;
    std::uint64_t calls;
  };
  std::vector<Row> rows_;
};

/// Machine-readable sink for benchmark results: BENCH_<tag>.json in the
/// working directory, one flat record per measured configuration so CI
/// and plotting scripts need no table scraping.  Core fields are always
/// (name, p, mean_ns, min_ns, throughput); a bench can append extra
/// numeric fields (percentiles, counters) per record.
///
/// Schema v2 adds run provenance so the perf trajectory is attributable
/// across PRs: `git_sha` (configure-time `git rev-parse --short HEAD`) and
/// `build_preset` (which CMake preset produced the binary), both
/// "unknown" when built outside the presets/git.
///
/// Schema v3 adds the optional `footprint_bytes` extra field: the Spread
/// payload bytes a run allocated (Machine::spread_bytes_allocated), used
/// by bench_host's packed-vs-strided allocation-mode records so the memory
/// reclaimed by SpreadLayout::kPacked is a measured number.
class JsonReport {
 public:
  /// \param bench short tag ("host", "pipeline"); the file becomes
  ///              BENCH_<bench>.json.
  explicit JsonReport(std::string bench)
      : bench_(std::move(bench)), path_("BENCH_" + bench_ + ".json") {}

  static constexpr int kSchemaVersion = 3;

  [[nodiscard]] static const char* git_sha() noexcept {
#ifdef HISTCC_GIT_SHA
    return HISTCC_GIT_SHA;
#else
    return "unknown";
#endif
  }

  [[nodiscard]] static const char* build_preset() noexcept {
#ifdef HISTCC_BUILD_PRESET
    return HISTCC_BUILD_PRESET;
#else
    return "unknown";
#endif
  }

  /// \param throughput work items per second (pixels, jobs, ...); the
  ///                   record's `name` says which.
  void add(std::string name, std::uint32_t p, double mean_ns, double min_ns,
           double throughput,
           std::vector<std::pair<std::string, double>> extra = {}) {
    entries_.push_back(Entry{std::move(name), p, mean_ns, min_ns, throughput,
                             std::move(extra)});
  }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Write the report; returns false (and prints to stderr) on I/O error.
  bool write() const {
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(out,
                 "{\n  \"bench\": \"%s\",\n  \"schema_version\": %d,\n"
                 "  \"git_sha\": \"%s\",\n  \"build_preset\": \"%s\",\n"
                 "  \"results\": [\n",
                 bench_.c_str(), kSchemaVersion, git_sha(), build_preset());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"p\": %u, \"mean_ns\": %.1f, "
                   "\"min_ns\": %.1f, \"throughput\": %.6g",
                   e.name.c_str(), e.p, e.mean_ns, e.min_ns, e.throughput);
      for (const auto& [key, value] : e.extra) {
        std::fprintf(out, ", \"%s\": %.6g", key.c_str(), value);
      }
      std::fprintf(out, "}%s\n", i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    return true;
  }

 private:
  struct Entry {
    std::string name;
    std::uint32_t p;
    double mean_ns;
    double min_ns;
    double throughput;
    std::vector<std::pair<std::string, double>> extra;
  };

  std::string bench_;
  std::string path_;
  std::vector<Entry> entries_;
};

/// Modeled total / comm / comp seconds for the max-over-processors ledger
/// of the last run on `machine`.
struct Modeled {
  double total_s;
  double comm_s;
  double comp_s;
};

inline Modeled model(const splitc::Machine& machine,
                     const splitc::MachineProfile& profile) {
  const auto stats = machine.max_stats();
  const double comm = stats.modeled_comm_seconds(profile);
  const double comp = stats.modeled_comp_seconds(profile);
  return Modeled{comm + comp, comm, comp};
}

/// work/pixel = time * p / n^2 — the normalization Tables 1 and 2 use.
inline double work_per_pixel_ns(double seconds, std::uint32_t p,
                                std::uint32_t n) {
  return seconds * 1e9 * static_cast<double>(p) /
         (static_cast<double>(n) * static_cast<double>(n));
}

/// The nine catalog images at side n.
inline std::vector<img::GreyImage> catalog_images(std::uint32_t n) {
  std::vector<img::GreyImage> images;
  images.reserve(static_cast<std::size_t>(img::kNumTestPatterns));
  for (int id = 1; id <= img::kNumTestPatterns; ++id) {
    images.push_back(
        img::make_test_pattern(static_cast<img::TestPattern>(id), n));
  }
  return images;
}

/// The local CC kernels on one n x n tile of the DARPA-like scene, as the
/// parallel algorithm runs them: `label()` is the Section 5.1 tile
/// labeling (ccseq::label_tile), `final_pass()` the total-consistency
/// update (cc::relabel_interior) after a merge that changed every
/// border-touching component.  The tile stands for the bottom-right one
/// of a 2n x 2n image, so its initial labels start past n*n and each
/// hook's final label (its initial label - n*n) names a component of
/// another tile.  Repeated final passes do identical work.
class TileKernels {
 public:
  explicit TileKernels(std::uint32_t n)
      : n_(n), scene_(img::make_darpa_like(n)), labels_(scene_.size()) {
    label();
    const auto offsets = cc::tile_border_offsets(n, n);
    hooks_ = cc::make_tile_hooks(scene_.pixels(), labels_, offsets);
    std::vector<cc::ChangePair> merged;
    for (const auto& hook : hooks_) {
      merged.push_back(cc::ChangePair{hook.label, hook.label - offset()});
    }
    cc::update_border_labels(labels_, scene_.pixels(), offsets, merged);
  }

  void label() {
    const std::uint32_t n = n_;
    const std::uint32_t base = offset();
    ccseq::label_tile(scene_.pixels(), labels_, n, n,
                      ccseq::Connectivity::kEight,
                      ccseq::ColourRule::kSameColour,
                      [n, base](std::uint32_t i, std::uint32_t j) {
                        return base + i * n + j + 1;
                      });
  }

  void final_pass() { cc::relabel_interior(labels_, scene_.pixels(), hooks_); }

  [[nodiscard]] const std::vector<std::uint32_t>& labels() const noexcept {
    return labels_;
  }
  [[nodiscard]] double pixels() const noexcept {
    return static_cast<double>(scene_.size());
  }

 private:
  [[nodiscard]] std::uint32_t offset() const noexcept { return n_ * n_; }

  std::uint32_t n_;
  img::GreyImage scene_;
  std::vector<std::uint32_t> labels_;
  std::vector<cc::TileHook> hooks_;
};

/// Pretty time: ms with 3 significant decimals.
inline std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds * 1e3);
  return buf;
}

inline void rule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace histcc::bench

#endif  // HISTCC_BENCH_UTIL_HPP
