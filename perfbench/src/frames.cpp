// frame_cc and frame_hist: one caller, one warm Machine(4), whole frames
// through the VM entry points, with the OpenMP entry points on the same
// frames as the host-parallel control.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "histcc/cc/parallel_cc.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/generators.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/splitc/spread.hpp"
#include "histcc/trace/trace.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace cc = histcc::cc;
namespace hist = histcc::hist;
namespace omp = histcc::omp;
namespace splitc = histcc::splitc;
namespace trace = histcc::trace;

constexpr std::size_t kSetupRepeats = 15;

// Span names the benchmark records around its own calls (host track).
constexpr const char* kOpSpan = "bench/op";
constexpr const char* kAllocSpan = "bench/alloc";
constexpr const char* kScatterSpan = "bench/scatter";
constexpr const char* kGatherSpan = "bench/gather";
constexpr const char* kLayoutSpan = "bench/layout_call";

cc::CcOptions cc_options(const Frame& f) {
  cc::CcOptions options;
  options.connectivity = ccseq::Connectivity::kEight;
  options.rule = f.rule;
  return options;
}

/// Time `compute`, then check its result with `check`; a throw counts as
/// a failed op.  Returns the seconds spent in `compute`.
template <typename Compute, typename Check>
double timed(Tally& tally, Compute compute, Check check) {
  try {
    const auto t0 = Clock::now();
    auto out = compute();
    const double s = seconds_between(t0, Clock::now());
    tally.record_check(check(out));
    return s;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: op threw: %s\n", e.what());
    ++tally.attempted;
    ++tally.thrown;
    return 0;
  }
}

/// The VM path through the public whole-image entry point.
double vm_op(splitc::Machine& m, const Frame& f, Tally& tally) {
  if (f.k > 0) {
    return timed(
        tally, [&] { return hist::histogram_parallel(m, f.image, f.k); },
        [&](const auto& h) { return h == f.hist; });
  }
  return timed(
      tally,
      [&] { return cc::connected_components_parallel(m, f.image, cc_options(f)); },
      [&](const auto& l) { return l == f.labels; });
}

double omp_op(const Frame& f, Tally& tally) {
  if (f.k > 0) {
    return timed(
        tally, [&] { return omp::histogram_omp(f.image, f.k); },
        [&](const auto& h) { return h == f.hist; });
  }
  return timed(
      tally,
      [&] {
        return omp::connected_components_omp(
            f.image, ccseq::Connectivity::kEight, f.rule);
      },
      [&](const auto& l) { return l == f.labels; });
}

double seq_op(const Frame& f, Tally& tally) {
  if (f.k > 0) {
    return timed(
        tally, [&] { return hist::histogram_seq(f.image, f.k); },
        [&](const auto& h) { return h == f.hist; });
  }
  return timed(
      tally,
      [&] {
        return ccseq::label_components_unionfind(
            f.image, ccseq::Connectivity::kEight, f.rule);
      },
      [&](const auto& l) { return l == f.labels; });
}

/// The VM path taken apart so the benchmark can span each host step:
/// Spread allocation, scatter, the layout overload, gather.  Does the
/// same work as vm_op.  With no tracer attached the spans cost nothing.
double vm_op_spanned(splitc::Machine& m, const Frame& f, Tally& tally) {
  trace::Tracer* tracer = m.tracer();
  return timed(
      tally,
      [&] {
        trace::Scope op(tracer, kOpSpan);
        const img::TileLayout layout(f.image.height(), f.image.width(),
                                     m.nprocs());
        std::optional<splitc::Spread<std::uint8_t>> tiles;
        std::optional<splitc::Spread<std::uint32_t>> labels;
        TRACE_SPAN(tracer, kAllocSpan) {
          tiles.emplace(m, layout.tile_sizes(), "tiles");
          if (f.k == 0) labels.emplace(m, layout.tile_sizes(), "labels");
        }
        TRACE_SPAN(tracer, kScatterSpan) { layout.scatter(f.image, *tiles); }
        std::vector<std::uint32_t> h;
        img::LabelImage l;
        TRACE_SPAN(tracer, kLayoutSpan) {
          if (f.k > 0) {
            h = hist::histogram_parallel(m, layout, *tiles, f.k);
          } else {
            cc::connected_components_parallel(m, layout, *tiles, *labels,
                                              cc_options(f));
          }
        }
        if (f.k == 0) {
          TRACE_SPAN(tracer, kGatherSpan) { l = layout.gather(*labels); }
        }
        return std::make_pair(std::move(h), std::move(l));
      },
      [&](const auto& out) {
        return f.k > 0 ? out.first == f.hist
                       : out.second == f.labels;
      });
}

std::uint64_t pixels_of(const std::vector<Frame>& frames) {
  std::uint64_t px = 0;
  for (const Frame& f : frames) px += f.image.size();
  return px;
}

/// One round: every frame once, in the rotation's next order.
std::vector<const Frame*> next_round(const std::vector<Frame>& frames,
                                     Rotation& rotation) {
  std::vector<const Frame*> order;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    order.push_back(&frames[rotation.next()]);
  }
  return order;
}

void run_untraced(const Args& args, const std::vector<Frame>& frames,
                  Report& report, Tally& tally) {
  // Set-up: build the machine, then one warm-up op of every kind on every
  // frame.  Repeated kSetupRepeats times at even points of the run, so
  // that one slow spell of a shared host does not set every repeat; the
  // median is reported and the newest machine measured.
  std::vector<double> setup_s;
  std::unique_ptr<splitc::Machine> machine;
  const auto set_up = [&] {
    machine.reset();  // tear-down of the previous one is not set-up time
    const auto t0 = Clock::now();
    machine = std::make_unique<splitc::Machine>(kProcs);
    for (const Frame& f : frames) vm_op(*machine, f, tally);
    for (const Frame& f : frames) omp_op(f, tally);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  set_up();

  Rotation rotation(frames.size(), args.seed);
  const double round_mpx = static_cast<double>(pixels_of(frames)) / 1e6;
  std::vector<double> vm_mpx_per_s;
  std::vector<double> omp_mpx_per_s;
  std::vector<double> frames_per_s;
  std::vector<double> round_vm_s;
  std::vector<std::vector<double>> round_latency_ms;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  do {  // at least one round, however short the run
    const auto order = next_round(frames, rotation);
    const std::uint64_t wrong_before = tally.total_failed();
    double vm_s = 0;
    std::vector<double>& latency_ms = round_latency_ms.emplace_back();
    for (const Frame* f : order) {
      const double s = vm_op(*machine, *f, tally);
      latency_ms.push_back(s * 1e3);
      vm_s += s;
    }
    round_vm_s.push_back(vm_s);
    const auto correct = static_cast<double>(
        order.size() - (tally.total_failed() - wrong_before));
    double omp_s = 0;
    for (const Frame* f : order) omp_s += omp_op(*f, tally);
    vm_mpx_per_s.push_back(round_mpx / vm_s);
    omp_mpx_per_s.push_back(round_mpx / omp_s);
    frames_per_s.push_back(correct / vm_s);
    const double done = seconds_between(start, Clock::now()) / args.seconds;
    if (setup_s.size() < kSetupRepeats &&
        done >= static_cast<double>(setup_s.size()) / kSetupRepeats) {
      set_up();
    }
  } while (Clock::now() < deadline);
  while (setup_s.size() < kSetupRepeats) set_up();  // runs shorter than a round

  // Latency percentiles over the calls of the quieter rounds.
  std::vector<std::size_t> by_time(round_vm_s.size());
  std::iota(by_time.begin(), by_time.end(), std::size_t{0});
  std::sort(by_time.begin(), by_time.end(), [&](std::size_t a, std::size_t b) {
    return round_vm_s[a] < round_vm_s[b];
  });
  by_time.resize(std::max<std::size_t>(
      1, static_cast<std::size_t>(kQuietRounds *
                                  static_cast<double>(by_time.size()))));
  std::vector<double> latency_ms;
  for (const std::size_t r : by_time) {
    latency_ms.insert(latency_ms.end(), round_latency_ms[r].begin(),
                      round_latency_ms[r].end());
  }
  std::printf("# rounds %zu, VM calls in the quieter rounds %zu\n",
              vm_mpx_per_s.size(), latency_ms.size());

  report.add("setup_s", median(setup_s), "s");
  report.add("mpx_per_s", quantile(vm_mpx_per_s, kFastRounds), "Mpx/s");
  report.add("omp_mpx_per_s", quantile(omp_mpx_per_s, kFastRounds), "Mpx/s");
  report.add("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  report.add("latency_p90_ms", quantile(latency_ms, 0.90), "ms");
  report.add("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.add("jobs_per_s", quantile(frames_per_s, kFastRounds), "jobs/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Layer times summed over the traced rounds' ops, read back from spans.
struct LayerTimes {
  double ops = 0;
  double op_ms = 0, alloc_ms = 0, scatter_ms = 0, gather_ms = 0;
  double bdm_ms = 0, kernel_ms = 0, layer_unattributed_ms = 0;
  std::vector<double> step_ms;  ///< per step group
  bool has_gather = false;
};

void run_traced(const Args& args, const std::vector<Frame>& frames, bool cc,
                Report& report, Tally& tally) {
  splitc::Machine machine(kProcs);
  for (const Frame& f : frames) vm_op(machine, f, tally);
  for (const Frame& f : frames) omp_op(f, tally);
  const SplitcProbe probe = probe_splitc(machine);

  Rotation rotation(frames.size(), args.seed);
  const double round_mpx = static_cast<double>(pixels_of(frames)) / 1e6;

  // Single-threaded and OpenMP controls on the same frames.
  std::vector<double> seq_round_s;
  std::vector<double> omp_round_s;
  auto until = Clock::now() + std::chrono::duration<double>(0.2 * args.seconds);
  do {  // at least one round, however short the run
    const auto order = next_round(frames, rotation);
    double seq_s = 0;
    double omp_s = 0;
    for (const Frame* f : order) seq_s += seq_op(*f, tally);
    for (const Frame* f : order) omp_s += omp_op(*f, tally);
    seq_round_s.push_back(seq_s);
    omp_round_s.push_back(omp_s);
  } while (Clock::now() < until);

  // Untraced and traced rounds of the spanned VM path, alternating so
  // slow drift of the host cancels out of the tracing overhead.
  trace::Tracer tracer;
  std::vector<double> plain_round_s;
  std::vector<double> traced_round_s;
  const std::int64_t traced_from = tracer.now_ns();
  until = Clock::now() + std::chrono::duration<double>(0.6 * args.seconds);
  do {  // at least one round, however short the run
    const auto order = next_round(frames, rotation);
    for (trace::Tracer* t : {static_cast<trace::Tracer*>(nullptr), &tracer}) {
      machine.set_trace(t);
      double s = 0;
      for (const Frame* f : order) s += vm_op_spanned(machine, *f, tally);
      (t == nullptr ? plain_round_s : traced_round_s).push_back(s);
    }
  } while (Clock::now() < until);
  const std::int64_t traced_to = tracer.now_ns();

  // Count pass: one rotation in frame order, counting exactly.
  std::uint64_t spread_bytes = 0;
  std::uint64_t barriers = 0;
  const std::int64_t count_from = tracer.now_ns();
  for (const Frame& f : frames) {
    machine.reset_alloc_stats();
    vm_op_spanned(machine, f, tally);
    spread_bytes += machine.spread_bytes_allocated();
    barriers += machine.max_stats().barriers;
  }
  const std::int64_t count_to = tracer.now_ns();
  machine.set_trace(nullptr);

  const SpanIndex index(tracer.spans());
  const auto ops = static_cast<double>(frames.size());
  const auto step_groups =
      cc ? std::vector<SpanMatch>{any_of({"cc/init"}),
                                  any_of({"cc/border", "cc/graph", "cc/update"}),
                                  any_of({"cc/final"})}
         : std::vector<SpanMatch>{any_of({hist::kHistStepSpans[0]}),
                                  any_of({hist::kHistStepSpans[1]}),
                                  any_of({hist::kHistStepSpans[2]}),
                                  any_of({hist::kHistStepSpans[3]})};
  const SpanMatch own_layer = prefix(cc ? "cc/" : "hist/");

  LayerTimes t;
  t.step_ms.resize(step_groups.size(), 0.0);
  std::vector<bool> step_seen(step_groups.size(), false);
  bool bdm_seen = false;
  bool layer_seen = false;
  for (const Span& op : index.named(kOpSpan)) {
    if (op.t0_ns < traced_from || op.t1_ns > traced_to) continue;
    const auto inside = index.window(op.t0_ns, op.t1_ns);
    for (const Span& s : inside) {
      const std::string_view name = s.name;
      if (name == kAllocSpan) t.alloc_ms += span_ms(s);
      if (name == kScatterSpan) t.scatter_ms += span_ms(s);
      if (name == kGatherSpan) {
        t.gather_ms += span_ms(s);
        t.has_gather = true;
      }
      if (name == kLayoutSpan) {
        const auto call = index.window(s.t0_ns, s.t1_ns);
        t.layer_unattributed_ms += span_ms(s) - critical_ms(call, own_layer);
        t.kernel_ms += critical_ms(call, kernel_spans());
        layer_seen = layer_seen || any_match(call, own_layer);
      }
    }
    t.ops += 1;
    t.op_ms += span_ms(op);
    t.bdm_ms += critical_ms(inside, prefix("bdm/"));
    bdm_seen = bdm_seen || any_match(inside, prefix("bdm/"));
    for (std::size_t g = 0; g < step_groups.size(); ++g) {
      t.step_ms[g] += critical_ms(inside, step_groups[g]);
      step_seen[g] = step_seen[g] || any_match(inside, step_groups[g]);
    }
  }
  const auto counted = index.window(count_from, count_to);
  const SpanCounts bdm = outermost_counts(counted, prefix("bdm/"), false);

  report_splitc(probe, report);
  report.add("splitc.barriers_per_op", static_cast<double>(barriers) / ops,
             "count");
  if (bdm_seen) {
    report.add("bdm.ms_per_op", t.bdm_ms / t.ops, "ms");
    report.add("bdm.words_per_op", static_cast<double>(bdm.words) / ops,
               "count");
    report.add("bdm.messages_per_op", static_cast<double>(bdm.messages) / ops,
               "count");
  }
  report.add("image.alloc_ms", t.alloc_ms / t.ops, "ms");
  report.add("image.scatter_ms", t.scatter_ms / t.ops, "ms");
  if (t.has_gather) report.add("image.gather_ms", t.gather_ms / t.ops, "ms");
  report.add("image.spread_bytes_per_op",
             static_cast<double>(spread_bytes) / ops, "bytes");

  const double seq_s = median(seq_round_s);
  const double plain_s = median(plain_round_s);
  const std::vector<const char*> step_names =
      cc ? std::vector<const char*>{"cc.init_ms", "cc.merge_ms", "cc.final_ms"}
         : std::vector<const char*>{"hist.tally_ms", "hist.transpose_ms",
                                    "hist.combine_ms", "hist.gather_ms"};
  for (std::size_t g = 0; g < step_groups.size(); ++g) {
    if (step_seen[g]) report.add(step_names[g], t.step_ms[g] / t.ops, "ms");
  }
  if (layer_seen) {
    report.add(cc ? "cc.unattributed_ms" : "hist.unattributed_ms",
               t.layer_unattributed_ms / t.ops, "ms");
  }
  report.add(cc ? "cc.vm_over_seq" : "hist.vm_over_seq", plain_s / seq_s,
             "ratio");
  report.add(cc ? "cc_seq.unionfind_mpx_per_s" : "hist.seq_mpx_per_s",
             round_mpx / seq_s, "Mpx/s");
  report.add(cc ? "omp.cc_over_seq" : "omp.hist_over_seq",
             median(omp_round_s) / seq_s, "ratio");
  report.add("trace.overhead_pct",
             (median(traced_round_s) / plain_s - 1.0) * 100.0, "%");
  const double attributed = t.alloc_ms + t.scatter_ms + t.gather_ms + t.kernel_ms;
  report.add("trace.unattributed_share", 1.0 - attributed / t.op_ms, "ratio");
  report.add("trace.spans_per_op", static_cast<double>(counted.size()) / ops,
             "count");
}

}  // namespace

void run_frames(const Args& args, bool cc, Report& report, Tally& tally) {
  const auto t0 = Clock::now();
  const std::vector<Frame> frames =
      cc ? make_cc_frames(args.seed) : make_hist_frames(args.seed);
  std::printf("# inputs generated in %.3f s\n",
              seconds_between(t0, Clock::now()));
  print_hashes(frames);
  if (args.trace) {
    run_traced(args, frames, cc, report, tally);
  } else {
    run_untraced(args, frames, report, tally);
  }
}

bool frames_self_test() {
  splitc::Machine machine(kProcs);
  Frame cc_frame;
  cc_frame.name = "self_test_cc";
  cc_frame.image = img::make_percolation(64, 0.59, 7);
  cc_frame.labels = ccseq::label_components_unionfind(cc_frame.image);
  Frame hist_frame;
  hist_frame.name = "self_test_hist";
  hist_frame.k = 16;
  hist_frame.image = img::make_random_grey(64, 16, 7);
  hist_frame.hist = hist::histogram_seq(hist_frame.image, 16);

  // Each corruption of a real VM result must be counted as one failure.
  const auto labels_check = [&](auto corrupt) {
    return [&, corrupt](const img::LabelImage& l) {
      img::LabelImage bad = l;
      corrupt(bad);
      return bad == cc_frame.labels;
    };
  };
  const auto hist_check = [&](auto corrupt) {
    return [&, corrupt](const std::vector<std::uint32_t>& h) {
      std::vector<std::uint32_t> bad = h;
      corrupt(bad);
      return bad == hist_frame.hist;
    };
  };
  const auto cc_run = [&] {
    return cc::connected_components_parallel(machine, cc_frame.image,
                                             cc_options(cc_frame));
  };
  const auto hist_run = [&] {
    return hist::histogram_parallel(machine, hist_frame.image, hist_frame.k);
  };

  Tally good;
  vm_op(machine, cc_frame, good);
  vm_op(machine, hist_frame, good);
  vm_op_spanned(machine, cc_frame, good);
  vm_op_spanned(machine, hist_frame, good);
  omp_op(cc_frame, good);
  seq_op(hist_frame, good);

  Tally bad;
  timed(bad, cc_run, labels_check([](img::LabelImage& l) { l(0, 0) += 1; }));
  timed(bad, cc_run, labels_check([](img::LabelImage& l) {
          l(l.height() - 1, l.width() - 1) ^= 0x10000u;
        }));
  timed(bad, cc_run,
        labels_check([](img::LabelImage& l) { l = img::LabelImage(1, 1); }));
  timed(bad, hist_run,
        hist_check([](std::vector<std::uint32_t>& h) { h[3] += 1; }));
  timed(bad, hist_run,
        hist_check([](std::vector<std::uint32_t>& h) { h.pop_back(); }));
  timed(bad, hist_run, hist_check([](std::vector<std::uint32_t>& h) {
          std::swap(h.front(), h.back());
        }));

  std::printf("# self-test frames: real %llu/%llu failed, corrupted %llu/%llu "
              "failed\n",
              static_cast<unsigned long long>(good.total_failed()),
              static_cast<unsigned long long>(good.attempted),
              static_cast<unsigned long long>(bad.total_failed()),
              static_cast<unsigned long long>(bad.attempted));
  return good.attempted == 6 && good.total_failed() == 0 &&
         bad.attempted == 6 && bad.wrong == 6;
}

}  // namespace perfbench
