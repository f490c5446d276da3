// Runtime-floor probes of the splitc layer, timed from outside through
// Machine's public interface.
#ifndef HISTCC_PERFBENCH_PROBES_HPP
#define HISTCC_PERFBENCH_PROBES_HPP

#include "histcc/splitc/machine.hpp"
#include "perfbench.hpp"

namespace perfbench {

/// Processor count of every benchmark-owned machine.
inline constexpr std::uint32_t kProcs = 4;

struct SplitcProbe {
  double run_empty_us = 0;      ///< median Machine::run of an empty program
  double barrier_us = 0;        ///< per barrier(), empty run subtracted
  double machine_build_ms = 0;  ///< Machine(kProcs) plus its first run
};

/// Probe `warm` (a default-constructed Machine(kProcs) that has already
/// run) and time fresh constructions.  `warm` must have no tracer.
[[nodiscard]] SplitcProbe probe_splitc(histcc::splitc::Machine& warm);

/// Add the splitc.* probe metrics to `report`.
void report_splitc(const SplitcProbe& probe, Report& report);

}  // namespace perfbench

#endif  // HISTCC_PERFBENCH_PROBES_HPP
