// histcc_perfbench: the repository's end-to-end benchmark.
//
//   histcc_perfbench --workload frame_cc|frame_hist|serve_mix --seed N
//                    --seconds S --trace 0|1 [--git-sha SHA]
//   histcc_perfbench --self-test
//
// Prints provenance and a metric table as "# " lines, then one JSON
// result object as the last line of standard output.  Exits non-zero
// when any operation failed its oracle check.  See README.md.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "perfbench.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Variables that change what a run measures; a timed run refuses them.
/// HISTCC_TRACE silently attaches a tracer to every Pipeline,
/// HISTCC_SPREAD_LAYOUT changes Spread allocation, OMP_NUM_THREADS the
/// OpenMP width and HISTCC_STRESS_RANDOM the test-only schedule noise.
constexpr const char* kForbiddenEnv[] = {"HISTCC_TRACE", "HISTCC_SPREAD_LAYOUT",
                                         "OMP_NUM_THREADS",
                                         "HISTCC_STRESS_RANDOM"};

constexpr std::array<std::string_view, 3> kWorkloads = {
    "frame_cc", "frame_hist", "serve_mix"};

/// Every per-layer metric of BENCHMARK.json with its unit; a traced run
/// reports each of them.  test_perfbench.py checks the two lists agree.
struct Catalogued {
  const char* name;
  const char* unit;
};
constexpr Catalogued kPerLayer[] = {
    {"splitc.run_empty_us", "us"},
    {"splitc.barrier_us", "us"},
    {"splitc.barriers_per_op", "count"},
    {"splitc.machine_build_ms", "ms"},
    {"bdm.ms_per_op", "ms"},
    {"bdm.words_per_op", "count"},
    {"bdm.messages_per_op", "count"},
    {"image.alloc_ms", "ms"},
    {"image.scatter_ms", "ms"},
    {"image.gather_ms", "ms"},
    {"image.spread_bytes_per_op", "bytes"},
    {"cc.init_ms", "ms"},
    {"cc.merge_ms", "ms"},
    {"cc.final_ms", "ms"},
    {"cc.unattributed_ms", "ms"},
    {"cc.vm_over_seq", "ratio"},
    {"hist.tally_ms", "ms"},
    {"hist.transpose_ms", "ms"},
    {"hist.combine_ms", "ms"},
    {"hist.gather_ms", "ms"},
    {"hist.unattributed_ms", "ms"},
    {"hist.vm_over_seq", "ratio"},
    {"cc_seq.unionfind_mpx_per_s", "Mpx/s"},
    {"hist.seq_mpx_per_s", "Mpx/s"},
    {"omp.cc_over_seq", "ratio"},
    {"omp.hist_over_seq", "ratio"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.lease_ms_mean", "ms"},
    {"serve.run_ms_p50", "ms"},
    {"serve.procs_mean", "count"},
    {"serve.seq_route_share", "ratio"},
    {"serve.threads_peak", "count"},
    {"serve.machines_built", "count"},
    {"serve.rejected_share", "ratio"},
    {"serve.degraded_share", "ratio"},
    {"serve.generator_lag_ms_p99", "ms"},
    {"serve.metrics_p99_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_share", "ratio"},
    {"trace.spans_per_op", "count"},
};

/// Share of a traced run's seconds given to each side pass.
constexpr double kSideShare = 0.2;

void run_workload(const Args& args, Report& report, Tally& tally) {
  if (args.workload == "serve_mix") {
    run_serve_mix(args, report, tally);
  } else {
    run_frames(args, args.workload == "frame_cc", report, tally);
  }
}

/// The traced run reports the whole per-layer catalogue.  The named
/// workload's own layers come from its own traffic, over most of the
/// run; the layers it does not exercise come from short traced side
/// passes of the other workloads, which only fill the gaps.  A metric
/// whose spans the program no longer emits is reported as 0 and named
/// on an "# absent" line.
void run_traced_catalogue(const Args& args, Report& report, Tally& tally) {
  const double sides = static_cast<double>(kWorkloads.size() - 1);
  Args own = args;
  own.seconds = args.seconds * (1.0 - kSideShare * sides);
  run_workload(own, report, tally);
  for (const std::string_view other : kWorkloads) {
    if (other == args.workload) continue;
    std::printf("# side pass %s\n", std::string(other).c_str());
    Args side = args;
    side.workload = other;
    side.seconds = args.seconds * kSideShare;
    Report extra;
    run_workload(side, extra, tally);
    report.add_missing(extra);
  }
  for (const Catalogued& m : kPerLayer) {
    if (report.has(m.name)) continue;
    std::printf("# absent %s: no span of its layer was emitted; reported as 0\n",
                m.name);
    report.add(m.name, 0.0, m.unit);
  }
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: histcc_perfbench --workload frame_cc|frame_hist|"
               "serve_mix --seed N --seconds S --trace 0|1 [--git-sha SHA]\n"
               "       histcc_perfbench --self-test\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* name : kForbiddenEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to run while %s is set; unset it\n",
                   name);
      return 3;
    }
  }

  Args args;
  bool self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--self-test") {
        self_test = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }

  try {
    if (self_test) {
      const bool frames_ok = frames_self_test();
      const bool serve_ok = serve_self_test();
      std::printf("# self-test %s\n", frames_ok && serve_ok ? "passed" : "FAILED");
      return frames_ok && serve_ok ? 0 : 1;
    }
    if (!std::isfinite(args.seconds) || args.seconds <= 0) {
      return usage("--seconds must be a positive number");
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), args.workload) ==
        kWorkloads.end()) {
      return usage("unknown workload '" + args.workload + "'");
    }

    std::printf("# workload %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("# nproc %u build_type %s git_sha %s\n",
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                args.git_sha.c_str());

    Report report;
    Tally tally;
    if (args.trace) {
      run_traced_catalogue(args, report, tally);
    } else {
      run_workload(args, report, tally);
    }
    report.print_table();
    std::printf("# failed_share %.6f (%llu of %llu ops)\n",
                static_cast<double>(tally.total_failed()) /
                    static_cast<double>(tally.attempted),
                static_cast<unsigned long long>(tally.total_failed()),
                static_cast<unsigned long long>(tally.attempted));
    report.print_json(tally);
    return tally.total_failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
