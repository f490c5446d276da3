// Shared vocabulary of the histcc end-to-end benchmark: run arguments,
// outcome accounting, timing statistics and the metric report.
#ifndef HISTCC_PERFBENCH_PERFBENCH_HPP
#define HISTCC_PERFBENCH_PERFBENCH_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/// Every duration the benchmark measures comes from this clock.
using Clock = std::chrono::steady_clock;
static_assert(Clock::is_steady, "benchmark timing requires a steady clock");

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string git_sha = "unknown";
};

/// Outcome accounting of every operation a run attempts.  Everything but
/// a correct result on the intended path counts as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t wrong = 0;      ///< output differs from the oracle
  std::uint64_t rejected = 0;   ///< serve: refused at submission
  std::uint64_t cancelled = 0;  ///< serve: cancelled before execution
  std::uint64_t timed_out = 0;  ///< serve: deadline expired
  std::uint64_t failed = 0;     ///< serve: both paths threw
  std::uint64_t degraded = 0;   ///< serve: intended path broke, fallback ran
  std::uint64_t thrown = 0;     ///< an entry point threw at the caller

  /// Count one frame operation whose output was checked.
  void record_check(bool correct) {
    ++attempted;
    if (!correct) ++wrong;
  }

  [[nodiscard]] std::uint64_t total_failed() const {
    return wrong + rejected + cancelled + timed_out + failed + degraded +
           thrown;
  }

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    wrong += o.wrong;
    rejected += o.rejected;
    cancelled += o.cancelled;
    timed_out += o.timed_out;
    failed += o.failed;
    degraded += o.degraded;
    thrown += o.thrown;
    return *this;
  }
};

/// Seeded picks from n items that use each one equally often: a fresh
/// permutation of all n per cycle.  Keeps the mix of a run exact while
/// the order changes with the seed.
class Rotation {
 public:
  Rotation(std::size_t n, std::uint64_t seed) : order_(n), rng_(seed) {
    for (std::size_t i = 0; i < n; ++i) order_[i] = i;
  }

  [[nodiscard]] std::size_t next() {
    if (pos_ == order_.size()) pos_ = 0;
    if (pos_ == 0) std::shuffle(order_.begin(), order_.end(), rng_);
    return order_[pos_++];
  }

 private:
  std::vector<std::size_t> order_;
  std::mt19937_64 rng_;
  std::size_t pos_ = 0;
};

/// Throughputs measured over repeated rounds are reported at this
/// quantile of the per-round rates: interference from the rest of the
/// host only ever slows a round down, so the faster rounds track the
/// program and the slower ones the neighbours.
inline constexpr double kFastRounds = 0.9;

/// Latency percentiles measured over repeated rounds pool the calls of
/// the same share of the rounds, the ones that took least time in all,
/// for the same reason.
inline constexpr double kQuietRounds = 1.0 - kFastRounds;

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// the sample must be non-empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& values);

/// The metrics one run prints, in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Add every metric of `other` whose name this report lacks.
  void add_missing(const Report& other);

  /// Human-readable table, one "# name value unit" line per metric.
  void print_table() const;

  /// The final line of standard output: the result object.
  void print_json(const Tally& tally) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// FNV-1a over raw bytes, for input/oracle provenance hashes.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Peak resident set size of this process in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Current thread count of this process (/proc/self/status), 0 if unknown.
[[nodiscard]] std::uint32_t thread_count();

}  // namespace perfbench

#endif  // HISTCC_PERFBENCH_PERFBENCH_HPP
