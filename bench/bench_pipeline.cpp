// Serving-pipeline load generator: closed-loop throughput of the
// multi-tenant job pipeline (histcc/serve) on this host.
//
// Three experiments:
//   1. Scaling — a mixed-aspect workload (histogram + components jobs on
//      512x256, 128x128, and 320x240 frames, so routing picks different
//      machine widths per job) driven closed-loop (2 submitters per pool
//      worker, one job in flight per submitter) against pool sizes
//      {1, 2, 4}: throughput should grow with the pool while p50/p99
//      stay bounded.
//   2. Overload — a single submitter bursts fail-fast jobs at a pipeline
//      with one worker and a 4-deep queue: the bounded queue must shed
//      the excess as kRejected instead of buffering without limit, and
//      every accepted job must still complete.
//   3. Pool convergence — a single submitter cycles jobs of three
//      distinct machine widths (p = 16, 4, 2) through a one-slot pool.
//      The slot keeps one warm machine per width, so machines_built()
//      stops growing after the first round.
//   4. Sampled tracing — the same closed loop run twice with a live
//      tracer, once unsampled and once at the always-on production
//      preset (kernel spans 1/16 via trace_sample_every): per-job
//      serve/run spans must stay exact (one per job in both runs), the
//      kernel span inventory shrinks ~16x, and rescaling the sampled
//      counts by the rate lands within a few percent of the unsampled
//      inventory (docs/tracing.md).
//
// Results go to stdout and to BENCH_pipeline.json (name, p, mean/min ns
// per job, jobs/second, plus latency percentiles and outcome counters).
#include "bench_util.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "histcc/trace/export.hpp"
#include "histcc/trace/trace.hpp"

namespace {

using namespace histcc;

/// Deterministic H x W grey image (any aspect ratio) with k levels.
img::GreyImage make_shape_grey(std::uint32_t h, std::uint32_t w,
                               std::uint32_t k, std::uint64_t seed) {
  img::GreyImage image(h, w);
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::uint32_t i = 0; i < h; ++i) {
    for (std::uint32_t j = 0; j < w; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      image(i, j) = static_cast<std::uint8_t>((state >> 33) % k);
    }
  }
  return image;
}

struct LoadResult {
  double wall_s;         ///< whole-experiment wall time
  std::uint64_t jobs;    ///< jobs completed kOk
  serve::PoolMetrics metrics;
};

/// Closed-loop driver: `submitters` threads each keep exactly one job in
/// flight until `jobs_per_submitter` jobs have completed, rotating
/// through three mixed-aspect job kinds so the ragged layout's routing
/// exercises several machine widths at once.
LoadResult run_closed_loop(std::uint32_t pool_size, int submitters,
                           int jobs_per_submitter, trace::Tracer* trace_sink,
                           std::uint32_t trace_sample_every = 1) {
  // 512x256 -> p=16, 128x128 -> p=4, 320x240 -> p=16; nothing square
  // about the mix is required any more (docs/layout.md).
  const auto grey_wide = make_shape_grey(512, 256, 16, 17);
  const auto grey_small = img::make_random_grey(128, 16, 17);
  const auto binary_vga = make_shape_grey(320, 240, 2, 29);

  serve::PipelineOptions options;
  options.pool_size = pool_size;
  options.max_procs = 16;
  options.trace = trace_sink;
  options.trace_sample_every = trace_sample_every;
  serve::Pipeline pipeline(options);

  std::atomic<std::uint64_t> ok{0};
  util::Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(submitters));
  for (int s = 0; s < submitters; ++s) {
    threads.emplace_back([&, s] {
      for (int i = 0; i < jobs_per_submitter; ++i) {
        const int kind = (s + i) % 3;
        serve::JobStatus status{};
        if (kind == 0) {
          status = pipeline.submit_histogram(grey_wide, 16).result.get().status;
        } else if (kind == 1) {
          status = pipeline.submit_histogram(grey_small, 16).result.get().status;
        } else {
          status = pipeline.submit_components(binary_vga).result.get().status;
        }
        if (status == serve::JobStatus::kOk) ok++;
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s = timer.seconds();
  return LoadResult{wall_s, ok.load(), pipeline.metrics()};
}

}  // namespace

int main(int argc, char** argv) {
  // `--trace OUT` attaches one tracer to every pipeline in the scaling
  // experiment (per-job serve spans + kernel phases on the leased
  // machines) and writes a Chrome/Perfetto trace to OUT at the end.
  std::string trace_path;
  std::uint32_t trace_sample = 1;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--trace" && a + 1 < argc) {
      trace_path = argv[++a];
      continue;
    }
    if (arg == "--trace-sample" && a + 1 < argc) {
      const long n = std::strtol(argv[++a], nullptr, 10);
      if (n < 1) {
        std::fprintf(stderr, "--trace-sample needs N >= 1\n");
        return 2;
      }
      trace_sample = static_cast<std::uint32_t>(n);
      continue;
    }
    std::fprintf(stderr, "usage: %s [--trace OUT.json] [--trace-sample N]\n",
                 argv[0]);
    return 2;
  }
  trace::Tracer tracer;
  trace::Tracer* const trace_sink = trace_path.empty() ? nullptr : &tracer;

  bench::JsonReport json("pipeline");
  std::printf("Serving pipeline — closed-loop load on this host (%u "
              "hardware threads)\n\n",
              std::max(1u, std::thread::hardware_concurrency()));

  // Experiment 1: throughput scaling with pool size over a mixed-aspect,
  // mixed-width workload (512x256 -> p=16, 128x128 -> p=4, 320x240 -> p=16).
  constexpr int kJobsPerSubmitter = 16;
  std::printf("scaling: mixed-aspect histogram+components jobs "
              "(512x256, 128x128, 320x240), closed loop\n");
  std::printf("  %-10s %-12s %-12s %-12s %-12s %s\n", "pool", "jobs/s",
              "p50 ms", "p99 ms", "queue ms", "machines");
  for (const std::uint32_t pool_size : {1u, 2u, 4u}) {
    const int submitters = static_cast<int>(pool_size) * 2;
    const auto r = run_closed_loop(pool_size, submitters, kJobsPerSubmitter,
                                   trace_sink, trace_sample);
    const auto total =
        static_cast<std::uint64_t>(submitters) * kJobsPerSubmitter;
    const double jobs_per_s = static_cast<double>(r.jobs) / r.wall_s;
    const double mean_job_ns =
        r.wall_s * 1e9 / static_cast<double>(total);
    std::printf("  %-10u %-12.1f %-12.3f %-12.3f %-12.3f %llu\n", pool_size,
                jobs_per_s, r.metrics.wall_p50_s * 1e3,
                r.metrics.wall_p99_s * 1e3, r.metrics.mean_queue_s * 1e3,
                static_cast<unsigned long long>(r.metrics.machines_built));
    json.add("closed_loop_pool" + std::to_string(pool_size), 16, mean_job_ns,
             mean_job_ns, jobs_per_s,
             {{"pool_size", static_cast<double>(pool_size)},
              {"jobs_ok", static_cast<double>(r.jobs)},
              {"jobs_total", static_cast<double>(total)},
              {"wall_p50_s", r.metrics.wall_p50_s},
              {"wall_p90_s", r.metrics.wall_p90_s},
              {"wall_p99_s", r.metrics.wall_p99_s},
              {"mean_queue_s", r.metrics.mean_queue_s},
              {"mean_run_s", r.metrics.mean_run_s},
              {"machines_built",
               static_cast<double>(r.metrics.machines_built)}});
  }

  // Experiment 2: overload against a bounded queue with fail-fast
  // submission — the queue sheds load instead of growing without bound.
  std::printf("\noverload: 1 worker, queue depth 4, burst of 64 fail-fast "
              "submissions\n");
  {
    const auto grey = img::make_random_grey(128, 16, 23);
    serve::PipelineOptions options;
    options.pool_size = 1;
    options.max_procs = 4;
    options.queue_capacity = 4;
    serve::Pipeline pipeline(options);
    serve::JobOptions fail_fast;
    fail_fast.overflow = serve::OverflowPolicy::kReject;

    constexpr int kBurst = 64;
    std::vector<serve::PendingJob<std::vector<std::uint32_t>>> jobs;
    jobs.reserve(kBurst);
    util::Timer timer;
    for (int i = 0; i < kBurst; ++i) {
      jobs.push_back(pipeline.submit_histogram(grey, 16, fail_fast));
    }
    std::uint64_t accepted_ok = 0;
    std::uint64_t rejected = 0;
    for (auto& job : jobs) {
      const auto result = job.result.get();
      if (result.status == serve::JobStatus::kRejected) {
        rejected++;
      } else if (result.status == serve::JobStatus::kOk) {
        accepted_ok++;
      }
    }
    const double wall_s = timer.seconds();
    const auto metrics = pipeline.metrics();
    std::printf("  accepted+completed %llu, rejected %llu (queue bounded at "
                "%zu), %.1f jobs/s served\n",
                static_cast<unsigned long long>(accepted_ok),
                static_cast<unsigned long long>(rejected),
                options.queue_capacity,
                static_cast<double>(accepted_ok) / wall_s);
    json.add("overload_burst", 4, wall_s * 1e9 / kBurst, wall_s * 1e9 / kBurst,
             static_cast<double>(accepted_ok) / wall_s,
             {{"burst", static_cast<double>(kBurst)},
              {"accepted_ok", static_cast<double>(accepted_ok)},
              {"rejected", static_cast<double>(rejected)},
              {"queue_capacity", static_cast<double>(options.queue_capacity)},
              {"metric_rejected", static_cast<double>(metrics.rejected)}});
  }

  // Experiment 3: machines_built() convergence under a mixed-width job
  // mix.  One slot, jobs cycling through three routed widths (512x256 ->
  // p=16, 128x128 -> p=4, 97x97 -> p=2).  The slot keeps one warm
  // machine per width, so the build count converges to 3 after the first
  // round.
  std::printf("\nconvergence: 1 slot, width mix p={16,4,2}, 4 rounds\n");
  {
    const auto grey_wide = make_shape_grey(512, 256, 16, 31);
    const auto grey_small = img::make_random_grey(128, 16, 37);
    const auto grey_odd = make_shape_grey(97, 97, 16, 41);
    constexpr int kRounds = 4;

    serve::PipelineOptions options;
    options.pool_size = 1;
    options.max_procs = 16;
    serve::Pipeline pipeline(options);

    std::uint64_t built_round1 = 0;
    std::uint64_t ok = 0;
    util::Timer timer;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto* image : {&grey_wide, &grey_small, &grey_odd}) {
        const auto result = pipeline.submit_histogram(*image, 16).result.get();
        if (result.status == serve::JobStatus::kOk) ok++;
      }
      if (round == 0) built_round1 = pipeline.metrics().machines_built;
    }
    const double wall_s = timer.seconds();
    const auto metrics = pipeline.metrics();
    std::printf("  built after round 1: %llu, after round %d: %llu (%s)\n",
                static_cast<unsigned long long>(built_round1), kRounds,
                static_cast<unsigned long long>(metrics.machines_built),
                metrics.machines_built == built_round1 ? "converged"
                                                       : "still building");
    const auto total = static_cast<std::uint64_t>(kRounds) * 3;
    json.add("convergence", 16, wall_s * 1e9 / static_cast<double>(total),
             wall_s * 1e9 / static_cast<double>(total),
             static_cast<double>(ok) / wall_s,
             {{"rounds", static_cast<double>(kRounds)},
              {"jobs_ok", static_cast<double>(ok)},
              {"machines_built_round1", static_cast<double>(built_round1)},
              {"machines_built_final",
               static_cast<double>(metrics.machines_built)}});
  }

  // Experiment 4: sampled tracing.  The pool-2 closed loop runs twice
  // against dedicated tracers — unsampled, then at the always-on preset
  // (kernel spans 1/16 via PipelineOptions::trace_sample_every).  The
  // serve layer's per-job spans must stay exact in both runs (one
  // serve/run per executed job — billing and SLO accounting depend on
  // it), while the kernel inventory shrinks ~16x and rescaling it by the
  // rate estimates the unsampled inventory within a few percent.
  std::printf("\nsampled tracing: pool 2 closed loop, kernel spans 1/16, "
              "serve spans exact\n");
  {
    constexpr std::uint32_t kSampleEvery = 16;
    constexpr std::uint32_t kPool = 2;
    constexpr int kSubmitters = 4;
    // Twice the scaling experiment's jobs: the rescaled estimate
    // overshoots by at most N-1 spans per (thread, category) stream
    // (the first span is always admitted), so relative error shrinks
    // with stream length — 2x the spans halves it.
    constexpr int kJobs = kJobsPerSubmitter * 2;
    const auto total = static_cast<std::uint64_t>(kSubmitters) * kJobs;

    const auto count_spans = [](const trace::Tracer& t, std::uint64_t* serve_run,
                                std::uint64_t* kernel) {
      *serve_run = 0;
      *kernel = 0;
      for (const auto& span : t.spans()) {
        if (std::string_view(span.name) == "serve/run") ++*serve_run;
        const auto cat = trace::category_of(span.name);
        if (cat == trace::Category::kBdm || cat == trace::Category::kHist ||
            cat == trace::Category::kCc || cat == trace::Category::kImg) {
          ++*kernel;
        }
      }
    };

    trace::Tracer full;
    const auto r_full = run_closed_loop(kPool, kSubmitters, kJobs, &full, 1);
    std::uint64_t serve_full = 0;
    std::uint64_t kernel_full = 0;
    count_spans(full, &serve_full, &kernel_full);

    trace::Tracer sampled;
    const auto r16 =
        run_closed_loop(kPool, kSubmitters, kJobs, &sampled, kSampleEvery);
    std::uint64_t serve16 = 0;
    std::uint64_t kernel16 = 0;
    count_spans(sampled, &serve16, &kernel16);

    // Nominal xN rescaling over-estimates (first spans are always
    // admitted); the phase report's measured rate (PhaseRow
    // effective_rate, seen/recorded) reproduces category totals.
    const double rescaled_nominal =
        static_cast<double>(kernel16) * static_cast<double>(kSampleEvery);
    double rescaled = 0.0;
    for (const auto& row : trace::phase_breakdown(sampled, splitc::host())) {
      const auto cat = trace::category_of(row.name.c_str());
      if (cat != trace::Category::kServe && cat != trace::Category::kOther) {
        rescaled += static_cast<double>(row.spans) * row.effective_rate;
      }
    }
    const auto err = [&](double estimate) {
      return kernel_full > 0
                 ? (estimate / static_cast<double>(kernel_full) - 1.0) * 100.0
                 : 0.0;
    };
    const double rescale_err_pct = err(rescaled);
    const double jobs_per_s = static_cast<double>(r16.jobs) / r16.wall_s;
    const double mean_job_ns = r16.wall_s * 1e9 / static_cast<double>(total);
    std::printf("  serve/run spans: %llu unsampled, %llu sampled (jobs %llu "
                "— %s)\n",
                static_cast<unsigned long long>(serve_full),
                static_cast<unsigned long long>(serve16),
                static_cast<unsigned long long>(total),
                serve16 == total ? "exact" : "MISMATCH");
    std::printf("  kernel spans: %llu unsampled -> %llu at 1/%u; measured-"
                "rate rescale = %.0f (%+.1f%%), nominal x%u = %.0f "
                "(%+.1f%%)\n",
                static_cast<unsigned long long>(kernel_full),
                static_cast<unsigned long long>(kernel16), kSampleEvery,
                rescaled, rescale_err_pct, kSampleEvery, rescaled_nominal,
                err(rescaled_nominal));
    json.add("closed_loop_traced16", 16, mean_job_ns, mean_job_ns, jobs_per_s,
             {{"sample_every", static_cast<double>(kSampleEvery)},
              {"jobs_ok", static_cast<double>(r16.jobs)},
              {"jobs_total", static_cast<double>(total)},
              {"serve_run_spans", static_cast<double>(serve16)},
              {"kernel_spans_unsampled", static_cast<double>(kernel_full)},
              {"kernel_spans_sampled", static_cast<double>(kernel16)},
              {"rescale_err_pct", rescale_err_pct},
              {"rescale_err_nominal_pct", err(rescaled_nominal)},
              {"wall_s_unsampled", r_full.wall_s},
              {"wall_s_sampled", r16.wall_s},
              {"wall_p99_s", r16.metrics.wall_p99_s}});
  }

  if (json.write()) {
    std::printf("\nmachine-readable results: %s\n", json.path().c_str());
  }
  if (trace_sink != nullptr) {
    if (trace::write_chrome_json(*trace_sink, trace_path)) {
      std::printf("trace written: %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
  }
  return 0;
}
