#include "spans.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>

namespace perfbench {
namespace {

namespace trace = histcc::trace;

bool on_rank_track(const Span& s) {
  return s.tid >= trace::rank_tid(0) && s.tid < trace::kServeTidBase;
}

/// Matching rank-track spans grouped by track, each group in start order
/// with enclosing spans before the spans they contain.
std::map<std::uint32_t, std::vector<const Span*>> by_track(
    std::span<const Span> spans, const SpanMatch& match) {
  std::map<std::uint32_t, std::vector<const Span*>> tracks;
  for (const Span& s : spans) {
    if (on_rank_track(s) && match(s.name)) tracks[s.tid].push_back(&s);
  }
  for (auto& [tid, list] : tracks) {
    std::sort(list.begin(), list.end(), [](const Span* a, const Span* b) {
      return a->t0_ns != b->t0_ns ? a->t0_ns < b->t0_ns : a->t1_ns > b->t1_ns;
    });
  }
  return tracks;
}

}  // namespace

SpanMatch prefix(std::string_view p) {
  return [p = std::string(p)](const char* name) {
    return std::strncmp(name, p.c_str(), p.size()) == 0;
  };
}

SpanMatch any_of(std::vector<std::string_view> names) {
  return [names = std::move(names)](const char* name) {
    return std::find(names.begin(), names.end(), std::string_view(name)) !=
           names.end();
  };
}

SpanMatch kernel_spans() {
  return [](const char* name) {
    const auto cat = trace::category_of(name);
    return cat == trace::Category::kBdm || cat == trace::Category::kHist ||
           cat == trace::Category::kCc || cat == trace::Category::kImg;
  };
}

SpanIndex::SpanIndex(std::vector<Span> spans) : spans_(std::move(spans)) {
  std::stable_sort(spans_.begin(), spans_.end(),
                   [](const Span& a, const Span& b) {
                     return a.t0_ns < b.t0_ns;
                   });
}

std::span<const Span> SpanIndex::window(std::int64_t from_ns,
                                        std::int64_t to_ns) const {
  const auto lo = std::lower_bound(
      spans_.begin(), spans_.end(), from_ns,
      [](const Span& s, std::int64_t t) { return s.t0_ns < t; });
  const auto hi = std::upper_bound(
      lo, spans_.end(), to_ns,
      [](std::int64_t t, const Span& s) { return t < s.t0_ns; });
  return {lo, hi};
}

std::vector<Span> SpanIndex::named(std::string_view name) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

double critical_ms(std::span<const Span> spans, const SpanMatch& match) {
  std::int64_t worst = 0;
  for (const auto& [tid, list] : by_track(spans, match)) {
    std::int64_t covered = 0;
    std::int64_t end = std::numeric_limits<std::int64_t>::min();
    for (const Span* s : list) {
      if (s->t1_ns <= end) continue;  // inside the current union
      covered += s->t1_ns - std::max(s->t0_ns, end);
      end = s->t1_ns;
    }
    worst = std::max(worst, covered);
  }
  return static_cast<double>(worst) / 1e6;
}

bool any_match(std::span<const Span> spans, const SpanMatch& match) {
  return std::any_of(spans.begin(), spans.end(),
                     [&](const Span& s) { return match(s.name); });
}

SpanCounts outermost_counts(std::span<const Span> spans,
                            const SpanMatch& match, bool rank0_only) {
  SpanCounts counts;
  for (const auto& [tid, list] : by_track(spans, match)) {
    if (rank0_only && tid != trace::rank_tid(0)) continue;
    std::int64_t end = std::numeric_limits<std::int64_t>::min();
    for (const Span* s : list) {
      if (s->t1_ns <= end) continue;  // nested in the previous outer span
      counts.words += s->words;
      counts.messages += s->messages;
      counts.barriers += s->barriers;
      end = s->t1_ns;
    }
  }
  return counts;
}

}  // namespace perfbench
