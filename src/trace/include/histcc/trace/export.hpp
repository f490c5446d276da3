#ifndef HISTCC_TRACE_EXPORT_HPP
#define HISTCC_TRACE_EXPORT_HPP

/// \file export.hpp
/// Exporters for a Tracer's recorded data.
///
/// Two formats:
///  - Chrome/Perfetto trace-event JSON ("X" complete events for spans,
///    "C" counter events, "M" thread-name metadata) — load the file in
///    ui.perfetto.dev or chrome://tracing.
///  - A plain-text per-phase breakdown: for every span name, wall time
///    on the critical rank, communication volume, and the modeled BDM
///    communication time under a MachineProfile — the paper's Fig. 11
///    style histogram decomposition produced from a live run instead of
///    the cost model alone.
///
/// Both read a snapshot via Tracer::spans()/counters(), so they inherit
/// the same quiescence requirement: export after Machine::run returned
/// or the pipeline drained, never mid-run.

#include <iosfwd>
#include <string>
#include <vector>

#include "histcc/splitc/profile.hpp"
#include "histcc/trace/trace.hpp"

namespace histcc::trace {

/// Write the Chrome/Perfetto trace-event JSON to `out`.
void write_chrome_json(const Tracer& tracer, std::ostream& out);

/// Write the Chrome/Perfetto trace-event JSON to the file at `path`.
/// \return false when the file could not be opened or written.
[[nodiscard]] bool write_chrome_json(const Tracer& tracer,
                                     const std::string& path);

/// One aggregated row of the per-phase breakdown (one per span name,
/// in order of first appearance — i.e. execution order).
struct PhaseRow {
  std::string name;
  std::uint64_t spans = 0;        ///< span records aggregated (recorded only)
  double wall_s = 0.0;            ///< max over tracks of summed durations
  double total_wall_s = 0.0;      ///< wall time summed over all spans
  std::uint64_t words = 0;        ///< remote words moved, all ranks
  std::uint64_t messages = 0;     ///< remote transfers, all ranks
  std::uint64_t barriers = 0;     ///< barrier crossings, all ranks
  double modeled_comm_s = 0.0;    ///< max over tracks of modeled Tcomm
  /// The tracer's sampling rate for this phase's category at export time:
  /// only every Nth span (per thread) was recorded, so every aggregate
  /// above is a sample of the phase.  Consumers must rescale to estimate
  /// phase totals — write_phase_report does, and flags the rescaled rows
  /// — or risk silently under-reporting sampled phases by up to N.
  std::uint32_t sample_every = 1;
  /// The *measured* decimation factor to rescale by: category-wide
  /// spans-seen / spans-recorded (Tracer::sampled_seen()), so rescaled
  /// span totals summed over a category equal the unsampled totals
  /// exactly; the nominal sample_every is only an upper bound because
  /// the first span per thread is always admitted.  1.0 for unsampled
  /// categories.
  double effective_rate = 1.0;
};

/// Aggregate the tracer's spans into per-phase rows.  Wall time per
/// phase is the maximum over tracks of that track's summed span
/// durations (ranks run concurrently, so the slowest rank is the phase
/// cost — the same max-over-processors aggregate the BDM model charges);
/// modeled time applies `profile` to each track's CommStats delta the
/// same way.
[[nodiscard]] std::vector<PhaseRow> phase_breakdown(
    const Tracer& tracer, const splitc::MachineProfile& profile);

/// Write the plain-text per-phase report (modeled-vs-wall side by side).
/// Rows of sampled categories (sample_every > 1) are printed rescaled —
/// every total multiplied by the rate — with an `xN` marker column and a
/// trailing note, so a sampled trace reports estimated phase totals
/// instead of silently under-reporting by N.
void write_phase_report(const Tracer& tracer,
                        const splitc::MachineProfile& profile,
                        std::ostream& out);

}  // namespace histcc::trace

#endif  // HISTCC_TRACE_EXPORT_HPP
