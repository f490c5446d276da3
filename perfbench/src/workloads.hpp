// The three workloads.  Each generates its seeded inputs and oracles,
// sets up, measures for args.seconds, checks every output, and adds its
// metrics to `report`: the end-to-end set when untraced, the per-layer
// set when args.trace is on.
#ifndef HISTCC_PERFBENCH_WORKLOADS_HPP
#define HISTCC_PERFBENCH_WORKLOADS_HPP

#include "perfbench.hpp"

namespace perfbench {

/// frame_cc (cc = true) or frame_hist (cc = false).
void run_frames(const Args& args, bool cc, Report& report, Tally& tally);

void run_serve_mix(const Args& args, Report& report, Tally& tally);

/// Self-tests of the oracle checks: feed each checker a real result and
/// corrupted copies of it, through the same accounting the workload
/// uses.  True when every corruption was counted as failed and no real
/// result was.
[[nodiscard]] bool frames_self_test();
[[nodiscard]] bool serve_self_test();

}  // namespace perfbench

#endif  // HISTCC_PERFBENCH_WORKLOADS_HPP
