// serve_mix: a default serve::Pipeline fed a seeded mix of the four job
// kinds over five shapes.  Phase (a) is an open loop (Poisson arrivals
// from one generator thread), phase (b) a closed loop of four clients.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "histcc/hist/histogram.hpp"
#include "histcc/omp/parallel_host.hpp"
#include "histcc/serve/pipeline.hpp"
#include "histcc/trace/trace.hpp"
#include "inputs.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace hist = histcc::hist;
namespace omp = histcc::omp;
namespace serve = histcc::serve;
namespace splitc = histcc::splitc;
namespace trace = histcc::trace;

/// Phase (a) arrival rate in jobs/s: about a quarter of what the closed
/// loop of phase (b) completes at the seed on a shared 4-vCPU host when
/// that host is slow (~250 jobs/s; ~500 when it is quiet), so the open
/// loop stays well below saturation in both states.  At twice this rate
/// queueing amplified the host's speed swings and the latency spread
/// between runs doubled.  Kept constant so that every commit is offered
/// the same load.
constexpr double kOpenLoopRate = 60.0;
constexpr int kClosedClients = 4;
constexpr int kSetupRepeats = 7;
/// Sequential passes over every (kind, shape) in the traced count pass.
constexpr int kCountPassReps = 3;

/// What the benchmark saw of one job.
struct Outcome {
  Clock::time_point observed;
  serve::JobStatus status = serve::JobStatus::kFailed;
  std::uint32_t procs = 0;
  bool correct = false;  ///< a value was returned and equals the oracle
  bool threw = false;
};

/// Waits for one submitted job and checks it against its oracle.
using Ticket = std::function<Outcome()>;

template <typename T, typename Check>
Ticket make_ticket(serve::PendingJob<T> pending, Check check) {
  auto job = std::make_shared<serve::PendingJob<T>>(std::move(pending));
  return [job, check] {
    Outcome o;
    try {
      auto result = job->result.get();
      o.observed = Clock::now();
      o.status = result.status;
      o.procs = result.procs;
      o.correct = result.value.has_value() && check(*result.value);
    } catch (const std::exception& e) {
      o.observed = Clock::now();
      o.threw = true;
      std::fprintf(stderr, "perfbench: job threw: %s\n", e.what());
    }
    return o;
  };
}

/// Submit `in` with a caller-made copy of its image.
Ticket submit(serve::Pipeline& pipe, const JobInput& in, img::GreyImage image) {
  try {
    switch (in.kind) {
      case JobKind::kHistogram:
        return make_ticket(pipe.submit_histogram(std::move(image), kServeK),
                           [&in](const auto& h) {
                             return h == in.hist;
                           });
      case JobKind::kEqualize:
        return make_ticket(pipe.submit_equalize(std::move(image), kServeK),
                           [&in](const auto& e) {
                             return e == in.equalized;
                           });
      case JobKind::kComponents:
        return make_ticket(pipe.submit_components(std::move(image)),
                           [&in](const auto& l) {
                             return l == in.labels;
                           });
      case JobKind::kStats:
        return make_ticket(pipe.submit_stats(std::move(image)),
                           [&in](const auto& s) {
                             return same_stats(s, in.stats);
                           });
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: submit threw: %s\n", e.what());
  }
  return [] {
    Outcome o;
    o.observed = Clock::now();
    o.threw = true;
    return o;
  };
}

void account(const Outcome& o, Tally& tally) {
  ++tally.attempted;
  if (o.threw) {
    ++tally.thrown;
    return;
  }
  switch (o.status) {
    case serve::JobStatus::kOk:
      if (!o.correct) ++tally.wrong;
      break;
    case serve::JobStatus::kDegraded: ++tally.degraded; break;
    case serve::JobStatus::kTimedOut: ++tally.timed_out; break;
    case serve::JobStatus::kCancelled: ++tally.cancelled; break;
    case serve::JobStatus::kRejected: ++tally.rejected; break;
    case serve::JobStatus::kFailed: ++tally.failed; break;
  }
}

bool good(const Outcome& o) {
  return !o.threw && o.status == serve::JobStatus::kOk && o.correct;
}

/// One job of every kind and shape (variant 0): submitted together, then
/// awaited.  With `one_at_a_time` each job is awaited before the next.
void every_kind_and_shape(serve::Pipeline& pipe,
                          const std::vector<JobInput>& inputs, Tally& tally,
                          bool one_at_a_time) {
  std::vector<Ticket> tickets;
  for (std::size_t kind = 0; kind < kJobKinds.size(); ++kind) {
    for (std::size_t shape = 0; shape < kServeShapes.size(); ++shape) {
      const JobInput& in = inputs[serve_index(kind, shape, 0)];
      tickets.push_back(submit(pipe, in, in.image));
      if (one_at_a_time) {
        account(tickets.back()(), tally);
        tickets.pop_back();
      }
    }
  }
  for (Ticket& t : tickets) account(t(), tally);
}

std::unique_ptr<serve::Pipeline> set_up(const serve::PipelineOptions& options,
                                        const std::vector<JobInput>& inputs,
                                        Tally& tally, double* seconds) {
  const auto t0 = Clock::now();
  auto pipe = std::make_unique<serve::Pipeline>(options);
  every_kind_and_shape(*pipe, inputs, tally, false);
  if (seconds != nullptr) *seconds = seconds_between(t0, Clock::now());
  return pipe;
}

struct OpenLoop {
  std::vector<double> latency_ms;       ///< scheduled send -> observed
  std::vector<double> sent_latency_ms;  ///< actual send -> observed
  std::vector<double> lag_ms;           ///< actual send - scheduled send
  std::vector<Outcome> outcomes;
  std::uint32_t threads_peak = 0;
};

/// Phase (a): Poisson arrivals at kOpenLoopRate for `seconds`, sent by the
/// calling thread; waiter threads observe the results.
OpenLoop run_open_loop(serve::Pipeline& pipe,
                       const std::vector<JobInput>& inputs, std::uint64_t seed,
                       double seconds, bool sample_threads, Tally& tally) {
  struct Sent {
    Ticket ticket;
    Clock::time_point scheduled;
    Clock::time_point sent;
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Sent> pending;
  bool done = false;

  const unsigned waiters =
      std::clamp(std::thread::hardware_concurrency(), 2u, 4u) - 1;
  std::vector<OpenLoop> partial(waiters);
  std::vector<Tally> tallies(waiters);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < waiters; ++w) {
    threads.emplace_back([&, w] {
      for (;;) {
        Sent job;
        {
          std::unique_lock lock(mutex);
          cv.wait(lock, [&] { return done || !pending.empty(); });
          if (pending.empty()) return;
          job = std::move(pending.front());
          pending.pop_front();
        }
        try {
          const Outcome o = job.ticket();
          account(o, tallies[w]);
          const auto ms = [](Clock::time_point a, Clock::time_point b) {
            return seconds_between(a, b) * 1e3;
          };
          partial[w].latency_ms.push_back(ms(job.scheduled, o.observed));
          partial[w].sent_latency_ms.push_back(ms(job.sent, o.observed));
          partial[w].lag_ms.push_back(ms(job.scheduled, job.sent));
          partial[w].outcomes.push_back(o);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: waiter threw: %s\n", e.what());
          ++tallies[w].thrown;
        }
      }
    });
  }
  const auto stop_waiters = [&] {
    {
      std::lock_guard lock(mutex);
      done = true;
    }
    cv.notify_all();
    for (auto& t : threads) t.join();
  };

  OpenLoop result;
  std::mt19937_64 rng(seed ^ 0x0a11ULL);
  std::exponential_distribution<double> gap(kOpenLoopRate);
  Rotation pick(inputs.size(), seed ^ 0x0a12ULL);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  auto scheduled = start;
  try {
    for (bool first = true;; first = false) {
      scheduled += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      if (scheduled >= end && !first) break;  // at least one job
      const JobInput& in = inputs[pick.next()];
      img::GreyImage image = in.image;
      std::this_thread::sleep_until(scheduled);
      const auto sent = Clock::now();
      Ticket ticket = submit(pipe, in, std::move(image));
      {
        std::lock_guard lock(mutex);
        pending.push_back({std::move(ticket), scheduled, sent});
      }
      cv.notify_one();
      if (sample_threads) {
        result.threads_peak = std::max(result.threads_peak, thread_count());
      }
    }
  } catch (...) {
    stop_waiters();  // never leave a waiter blocked or a thread unjoined
    throw;
  }
  stop_waiters();

  for (unsigned w = 0; w < waiters; ++w) {
    tally += tallies[w];
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(result.latency_ms, partial[w].latency_ms);
    append(result.sent_latency_ms, partial[w].sent_latency_ms);
    append(result.lag_ms, partial[w].lag_ms);
    result.outcomes.insert(result.outcomes.end(), partial[w].outcomes.begin(),
                           partial[w].outcomes.end());
  }
  return result;
}

struct ClosedLoop {
  double jobs_per_s = 0;
  double mpx_per_s = 0;
};

/// Phase (b): kClosedClients threads, each with one job in flight, for
/// `seconds`; rates over the time until the last job was observed.
ClosedLoop run_closed_loop(serve::Pipeline& pipe,
                           const std::vector<JobInput>& inputs,
                           std::uint64_t seed, double seconds, Tally& tally) {
  std::vector<std::uint64_t> jobs(kClosedClients, 0);
  std::vector<std::uint64_t> pixels(kClosedClients, 0);
  std::vector<Clock::time_point> last(kClosedClients);
  std::vector<Tally> tallies(kClosedClients);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClosedClients; ++c) {
    clients.emplace_back([&, c] {
      const auto i = static_cast<std::size_t>(c);
      Rotation pick(inputs.size(), seed * 31 + 0xb0 + i);
      last[i] = start;
      do {  // at least one job, however short the phase
        try {
          const JobInput& in = inputs[pick.next()];
          const Outcome o = submit(pipe, in, in.image)();
          account(o, tallies[i]);
          last[i] = o.observed;
          if (good(o)) {
            ++jobs[i];
            pixels[i] += in.image.size();
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: client threw: %s\n", e.what());
          ++tallies[i].attempted;
          ++tallies[i].thrown;
        }
      } while (Clock::now() < end);
    });
  }
  for (auto& t : clients) t.join();
  std::uint64_t total_jobs = 0;
  std::uint64_t total_px = 0;
  auto stop = start;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    total_jobs += jobs[i];
    total_px += pixels[i];
    stop = std::max(stop, last[i]);
    tally += tallies[i];
  }
  const double s = seconds_between(start, stop);
  return {static_cast<double>(total_jobs) / s,
          static_cast<double>(total_px) / s / 1e6};
}

/// The OpenMP entry points on the mix's histogram and components inputs,
/// one caller; Mpx/s of the faster rotations (kFastRounds).
double run_omp_control(const std::vector<JobInput>& inputs, std::uint64_t seed,
                       double seconds, Tally& tally) {
  std::vector<const JobInput*> pool;
  for (const JobInput& in : inputs) {
    if (in.kind == JobKind::kHistogram || in.kind == JobKind::kComponents) {
      pool.push_back(&in);
    }
  }
  Rotation order(pool.size(), seed ^ 0x0390ULL);
  std::vector<double> mpx_per_s;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  do {  // at least one round, however short the run
    double s = 0;
    std::uint64_t px = 0;
    for (std::size_t n = 0; n < pool.size(); ++n) {
      const JobInput* in = pool[order.next()];
      try {
        const auto t0 = Clock::now();
        bool ok = false;
        if (in->kind == JobKind::kHistogram) {
          auto h = omp::histogram_omp(in->image, kServeK);
          s += seconds_between(t0, Clock::now());
          ok = h == in->hist;
        } else {
          auto l = omp::connected_components_omp(in->image);
          s += seconds_between(t0, Clock::now());
          ok = l == in->labels;
        }
        tally.record_check(ok);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: omp op threw: %s\n", e.what());
        ++tally.attempted;
        ++tally.thrown;
      }
      px += in->image.size();
    }
    mpx_per_s.push_back(static_cast<double>(px) / s / 1e6);
  } while (Clock::now() < end);
  return quantile(std::move(mpx_per_s), kFastRounds);
}

void run_untraced(const Args& args, const std::vector<JobInput>& inputs,
                  Report& report, Tally& tally) {
  std::vector<double> setup_s;
  std::unique_ptr<serve::Pipeline> pipe;
  for (int r = 0; r < kSetupRepeats; ++r) {
    pipe.reset();  // tear-down of the previous one is not set-up time
    double s = 0;
    pipe = set_up(serve::PipelineOptions{}, inputs, tally, &s);
    setup_s.push_back(s);
  }
  const OpenLoop open = run_open_loop(*pipe, inputs, args.seed,
                                      0.8 * args.seconds, false, tally);
  const ClosedLoop closed =
      run_closed_loop(*pipe, inputs, args.seed, 0.12 * args.seconds, tally);
  pipe.reset();
  const double omp_mpx =
      run_omp_control(inputs, args.seed, 0.08 * args.seconds, tally);
  std::printf("# open-loop jobs %zu, closed-loop %.1f jobs/s\n",
              open.latency_ms.size(), closed.jobs_per_s);

  report.add("setup_s", median(setup_s), "s");
  report.add("mpx_per_s", closed.mpx_per_s, "Mpx/s");
  report.add("omp_mpx_per_s", omp_mpx, "Mpx/s");
  report.add("latency_p50_ms", quantile(open.latency_ms, 0.50), "ms");
  report.add("latency_p90_ms", quantile(open.latency_ms, 0.90), "ms");
  report.add("latency_p99_ms", quantile(open.latency_ms, 0.99), "ms");
  report.add("jobs_per_s", closed.jobs_per_s, "jobs/s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_traced(const Args& args, const std::vector<JobInput>& inputs,
                Report& report, Tally& tally) {
  SplitcProbe probe;
  {
    splitc::Machine machine(kProcs);
    machine.run([](splitc::Proc&) {});
    probe = probe_splitc(machine);
  }

  // Untraced closed loop, the base of the tracing overhead.
  double plain_jobs_per_s = 0;
  {
    auto pipe = set_up(serve::PipelineOptions{}, inputs, tally, nullptr);
    plain_jobs_per_s =
        run_closed_loop(*pipe, inputs, args.seed, 0.2 * args.seconds, tally)
            .jobs_per_s;
  }

  trace::Tracer tracer;
  serve::PipelineOptions options;
  options.trace = &tracer;
  auto pipe = set_up(options, inputs, tally, nullptr);

  const std::int64_t count_from = tracer.now_ns();
  for (int rep = 0; rep < kCountPassReps; ++rep) {
    every_kind_and_shape(*pipe, inputs, tally, true);
  }
  const std::int64_t count_to = tracer.now_ns();
  const auto count_jobs =
      static_cast<double>(kCountPassReps * kJobKinds.size() * kServeShapes.size());

  const std::int64_t open_from = tracer.now_ns();
  Tally served;
  const OpenLoop open = run_open_loop(*pipe, inputs, args.seed,
                                      0.4 * args.seconds, true, served);
  const std::int64_t open_to = tracer.now_ns();
  const serve::PoolMetrics after_open = pipe->metrics();
  const double traced_jobs_per_s =
      run_closed_loop(*pipe, inputs, args.seed, 0.2 * args.seconds, served)
          .jobs_per_s;
  const std::uint64_t machines_built = pipe->metrics().machines_built;
  pipe->shutdown();
  tally += served;

  const SpanIndex index(tracer.spans());
  const auto counted = index.window(count_from, count_to);
  const auto opened = index.window(open_from, open_to);

  // Per-job layer times of the count pass, where jobs ran one at a time.
  std::vector<double> bdm_ms;
  std::vector<double> run_ms;
  std::vector<double> attributed_ms;
  const std::vector<std::pair<const char*, SpanMatch>> steps = {
      {"cc.init_ms", any_of({"cc/init"})},
      {"cc.merge_ms", any_of({"cc/border", "cc/graph", "cc/update"})},
      {"cc.final_ms", any_of({"cc/final"})},
      {"hist.tally_ms", any_of({hist::kHistStepSpans[0]})},
      {"hist.transpose_ms", any_of({hist::kHistStepSpans[1]})},
      {"hist.combine_ms", any_of({hist::kHistStepSpans[2]})},
      {"hist.gather_ms", any_of({hist::kHistStepSpans[3]})}};
  std::vector<std::vector<double>> step_ms(steps.size());
  for (const Span& run : index.named("serve/run")) {
    if (run.t0_ns < count_from || run.t1_ns > count_to) continue;
    const auto inside = index.window(run.t0_ns, run.t1_ns);
    double lease = 0;
    for (const Span& s : inside) {
      if (std::string_view(s.name) == "serve/lease") lease += span_ms(s);
    }
    bdm_ms.push_back(critical_ms(inside, prefix("bdm/")));
    run_ms.push_back(span_ms(run));
    attributed_ms.push_back(lease + critical_ms(inside, kernel_spans()));
    for (std::size_t g = 0; g < steps.size(); ++g) {
      if (any_match(inside, steps[g].second)) {
        step_ms[g].push_back(critical_ms(inside, steps[g].second));
      }
    }
  }
  const SpanCounts bdm = outermost_counts(counted, prefix("bdm/"), false);
  const SpanCounts rank0 = outermost_counts(counted, kernel_spans(), true);

  report_splitc(probe, report);
  report.add("splitc.barriers_per_op",
             static_cast<double>(rank0.barriers) / count_jobs, "count");
  if (any_match(counted, prefix("bdm/"))) {
    report.add("bdm.ms_per_op", mean(bdm_ms), "ms");
    report.add("bdm.words_per_op", static_cast<double>(bdm.words) / count_jobs,
               "count");
    report.add("bdm.messages_per_op",
               static_cast<double>(bdm.messages) / count_jobs, "count");
  }
  for (std::size_t g = 0; g < steps.size(); ++g) {
    if (!step_ms[g].empty()) report.add(steps[g].first, mean(step_ms[g]), "ms");
  }

  auto durations = [&](const char* name) {
    std::vector<double> ms;
    for (const Span& s : opened) {
      if (std::string_view(s.name) == name) ms.push_back(span_ms(s));
    }
    return ms;
  };
  const auto queue_ms = durations("serve/queue");
  const auto lease_ms = durations("serve/lease");
  const auto serve_run_ms = durations("serve/run");
  if (!queue_ms.empty()) {
    report.add("serve.queue_ms_p50", quantile(queue_ms, 0.50), "ms");
    report.add("serve.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
  }
  if (!lease_ms.empty()) report.add("serve.lease_ms_mean", mean(lease_ms), "ms");
  if (!serve_run_ms.empty()) {
    report.add("serve.run_ms_p50", quantile(serve_run_ms, 0.50), "ms");
  }
  double procs = 0;
  double sequential = 0;
  for (const Outcome& o : open.outcomes) {
    procs += o.procs;
    if (o.procs == 1) sequential += 1;
  }
  const auto n_open = static_cast<double>(open.outcomes.size());
  report.add("serve.procs_mean", procs / n_open, "count");
  report.add("serve.seq_route_share", sequential / n_open, "ratio");
  report.add("serve.threads_peak", open.threads_peak, "count");
  report.add("serve.machines_built", static_cast<double>(machines_built),
             "count");
  const auto n_served = static_cast<double>(served.attempted);
  report.add("serve.rejected_share",
             static_cast<double>(served.rejected) / n_served, "ratio");
  report.add("serve.degraded_share",
             static_cast<double>(served.degraded) / n_served, "ratio");
  report.add("serve.generator_lag_ms_p99", quantile(open.lag_ms, 0.99), "ms");
  report.add("serve.metrics_p99_ratio",
             after_open.wall_p99_s * 1e3 /
                 quantile(open.sent_latency_ms, 0.99),
             "ratio");

  report.add("trace.overhead_pct",
             (plain_jobs_per_s / traced_jobs_per_s - 1.0) * 100.0, "%");
  double run_total = 0;
  double attributed = 0;
  for (std::size_t i = 0; i < run_ms.size(); ++i) {
    run_total += run_ms[i];
    attributed += attributed_ms[i];
  }
  report.add("trace.unattributed_share", (run_total - attributed) / run_total,
             "ratio");
  report.add("trace.spans_per_op",
             static_cast<double>(counted.size()) / count_jobs, "count");
}

}  // namespace

void run_serve_mix(const Args& args, Report& report, Tally& tally) {
  const auto t0 = Clock::now();
  const std::vector<JobInput> inputs = make_serve_inputs(args.seed);
  std::printf("# inputs generated in %.3f s\n",
              seconds_between(t0, Clock::now()));
  print_hashes(inputs);
  if (args.trace) {
    run_traced(args, inputs, report, tally);
  } else {
    run_untraced(args, inputs, report, tally);
  }
}

bool serve_self_test() {
  const std::vector<JobInput> inputs = make_serve_inputs(7);
  serve::Pipeline pipe;
  Tally good;
  every_kind_and_shape(pipe, inputs, good, false);

  // A real result of every kind, corrupted before the oracle check, must
  // be counted as one wrong output each.
  Tally bad;
  const std::size_t shape = 1;  // 128 x 128, the parallel route
  const auto& h = inputs[serve_index(0, shape, 0)];
  const auto& e = inputs[serve_index(1, shape, 0)];
  const auto& c = inputs[serve_index(2, shape, 0)];
  const auto& s = inputs[serve_index(3, shape, 0)];
  account(make_ticket(pipe.submit_histogram(h.image, kServeK),
                      [&](std::vector<std::uint32_t> v) {
                        v[0] += 1;
                        return v == h.hist;
                      })(),
          bad);
  account(make_ticket(pipe.submit_equalize(e.image, kServeK),
                      [&](img::GreyImage v) {
                        v(5, 5) ^= 1;
                        return v == e.equalized;
                      })(),
          bad);
  account(make_ticket(pipe.submit_components(c.image),
                      [&](img::LabelImage v) {
                        v(0, 0) += 1;
                        return v == c.labels;
                      })(),
          bad);
  account(make_ticket(pipe.submit_stats(s.image),
                      [&](std::vector<ccseq::ComponentStats> v) {
                        v.back().pixels += 1;
                        return same_stats(v, s.stats);
                      })(),
          bad);
  account(make_ticket(pipe.submit_stats(s.image),
                      [&](std::vector<ccseq::ComponentStats> v) {
                        v.back().sum_col += 1;
                        return same_stats(v, s.stats);
                      })(),
          bad);
  std::printf("# self-test serve: real %llu/%llu failed, corrupted %llu/%llu "
              "failed\n",
              static_cast<unsigned long long>(good.total_failed()),
              static_cast<unsigned long long>(good.attempted),
              static_cast<unsigned long long>(bad.total_failed()),
              static_cast<unsigned long long>(bad.attempted));
  return good.attempted == kJobKinds.size() * kServeShapes.size() &&
         good.total_failed() == 0 && bad.attempted == 5 && bad.wrong == 5;
}

}  // namespace perfbench
