#include "probes.hpp"

#include <vector>

namespace perfbench {
namespace {

constexpr int kEmptyRuns = 200;
constexpr int kBarrierRuns = 50;
constexpr int kBarriersPerRun = 64;
constexpr int kBuilds = 5;

double median_run_us(histcc::splitc::Machine& machine, int runs,
                     const std::function<void(histcc::splitc::Proc&)>& prog) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    const auto t0 = Clock::now();
    machine.run(prog);
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return median(std::move(us));
}

}  // namespace

SplitcProbe probe_splitc(histcc::splitc::Machine& warm) {
  SplitcProbe probe;
  probe.run_empty_us =
      median_run_us(warm, kEmptyRuns, [](histcc::splitc::Proc&) {});
  const double barriers_us =
      median_run_us(warm, kBarrierRuns, [](histcc::splitc::Proc& self) {
        for (int b = 0; b < kBarriersPerRun; ++b) self.barrier();
      });
  probe.barrier_us = (barriers_us - probe.run_empty_us) / kBarriersPerRun;

  std::vector<double> build_ms;
  for (int i = 0; i < kBuilds; ++i) {
    const auto t0 = Clock::now();
    histcc::splitc::Machine fresh(kProcs);
    fresh.run([](histcc::splitc::Proc&) {});
    build_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  probe.machine_build_ms = median(std::move(build_ms));
  return probe;
}

void report_splitc(const SplitcProbe& probe, Report& report) {
  report.add("splitc.run_empty_us", probe.run_empty_us, "us");
  report.add("splitc.barrier_us", probe.barrier_us, "us");
  report.add("splitc.machine_build_ms", probe.machine_build_ms, "ms");
}

}  // namespace perfbench
