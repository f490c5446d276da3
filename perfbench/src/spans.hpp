// Reading per-layer figures out of a histcc::trace::Tracer snapshot.
//
// Conventions, shared by every per-layer metric:
//  - A layer's time in one operation is its *critical-track* time: per
//    virtual-processor track, the length of the union of the layer's span
//    intervals (so nested spans count once), then the maximum over tracks
//    (ranks run concurrently; the slowest one sets the phase cost).
//  - Counts (words, messages, barriers) sum the *outermost* matching
//    spans per track, so a primitive nested in another is not counted
//    twice.
#ifndef HISTCC_PERFBENCH_SPANS_HPP
#define HISTCC_PERFBENCH_SPANS_HPP

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "histcc/trace/trace.hpp"

namespace perfbench {

using histcc::trace::Span;
using SpanMatch = std::function<bool(const char*)>;

/// Match spans whose name starts with `prefix` ("cc/", "bdm/", ...).
[[nodiscard]] SpanMatch prefix(std::string_view prefix);
/// Match exactly one of `names`.
[[nodiscard]] SpanMatch any_of(std::vector<std::string_view> names);
/// Match the program's kernel spans (bdm/, hist/, cc/, img/).
[[nodiscard]] SpanMatch kernel_spans();

/// A tracer snapshot ordered by start time, with window lookup.
class SpanIndex {
 public:
  explicit SpanIndex(std::vector<Span> spans);

  /// Spans that start within [from_ns, to_ns].
  [[nodiscard]] std::span<const Span> window(std::int64_t from_ns,
                                             std::int64_t to_ns) const;

  /// Spans named `name`, in start order.
  [[nodiscard]] std::vector<Span> named(std::string_view name) const;

 private:
  std::vector<Span> spans_;
};

/// Critical-track time in ms of the matching spans on virtual-processor
/// tracks (see the file comment).  0 when none match.
[[nodiscard]] double critical_ms(std::span<const Span> spans,
                                 const SpanMatch& match);

/// Whether any span in the range matches.
[[nodiscard]] bool any_match(std::span<const Span> spans,
                             const SpanMatch& match);

struct SpanCounts {
  std::uint64_t words = 0;
  std::uint64_t messages = 0;
  std::uint64_t barriers = 0;
};

/// Counts summed over the outermost matching spans per track.  With
/// `rank0_only` only virtual processor 0's track is read.
[[nodiscard]] SpanCounts outermost_counts(std::span<const Span> spans,
                                          const SpanMatch& match,
                                          bool rank0_only);

[[nodiscard]] inline double span_ms(const Span& s) {
  return static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
}

}  // namespace perfbench

#endif  // HISTCC_PERFBENCH_SPANS_HPP
