#include "histcc/serve/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "histcc/cc/stats_parallel.hpp"
#include "histcc/cc_seq/union_find.hpp"
#include "histcc/hist/equalize.hpp"
#include "histcc/hist/histogram.hpp"
#include "histcc/image/layout.hpp"
#include "histcc/splitc/spread.hpp"
#include "histcc/trace/trace.hpp"

namespace histcc::serve {

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Attaches the pipeline's tracer to a leased machine for the duration of
/// one job and detaches on every exit path: leased machines outlive the
/// job and may serve a later pipeline with a different (or no) tracer.
class MachineTraceGuard {
 public:
  MachineTraceGuard(splitc::Machine& machine, trace::Tracer* tracer)
      : machine_(machine) {
    machine_.set_trace(tracer);
  }
  ~MachineTraceGuard() {
    if (!machine_.running()) machine_.set_trace(nullptr);
  }
  MachineTraceGuard(const MachineTraceGuard&) = delete;
  MachineTraceGuard& operator=(const MachineTraceGuard&) = delete;

 private:
  splitc::Machine& machine_;
};

/// Distributed equalization over a host image: scatter, equalize in
/// place, gather.  Requires p | k; violations throw and degrade.
img::GreyImage equalize_parallel_image(splitc::Machine& machine,
                                       const img::GreyImage& image,
                                       std::uint32_t k) {
  const img::TileLayout layout(image.height(), image.width(),
                               machine.nprocs());
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "serve_eq_tiles");
  layout.scatter(image, tiles);
  hist::equalize_parallel(machine, layout, tiles, k);
  return layout.gather(tiles);
}

/// Distributed label + measure: one scatter feeds both the CC algorithm
/// and the per-component statistics reduction.
std::vector<ccseq::ComponentStats> stats_parallel_image(
    splitc::Machine& machine, const img::GreyImage& image,
    const cc::CcOptions& options) {
  const img::TileLayout layout(image.height(), image.width(),
                               machine.nprocs());
  splitc::Spread<std::uint8_t> tiles(machine, layout.tile_sizes(),
                                     "serve_stats_tiles");
  layout.scatter(image, tiles);
  splitc::Spread<std::uint32_t> labels(machine, layout.tile_sizes(),
                                       "serve_stats_labels");
  cc::connected_components_parallel(machine, layout, tiles, labels, options);
  return cc::component_stats_parallel(machine, layout, tiles, labels);
}

}  // namespace

std::uint32_t choose_procs(std::uint32_t height, std::uint32_t width,
                           const PipelineOptions& options) {
  // The ragged tile layout hosts any H x W shape, so routing is by pixel
  // count alone: only tiny images take the sequential reference path.
  const std::uint64_t pixels = static_cast<std::uint64_t>(height) * width;
  if (pixels <= options.sequential_pixels) return 1;
  const std::uint64_t grain = std::max<std::uint32_t>(1, options.grain_pixels);
  const std::uint64_t target =
      std::min<std::uint64_t>(pixels / grain, options.max_procs);
  const auto p = static_cast<std::uint32_t>(std::bit_floor(target));
  return p == 0 ? 1 : p;
}

/// A type-erased job as it sits in the bounded queue.  The closures share
/// a per-job state block holding the promise and the computed value;
/// `finish` is the single exit point that resolves the future.
struct Pipeline::QueuedJob {
  std::uint64_t id = 0;
  std::shared_ptr<JobControl> control;
  Clock::time_point submitted{};
  std::optional<Clock::time_point> deadline{};
  /// Virtual processors the parallel path will use; meaningful only when
  /// `parallel` is set.
  std::uint32_t procs = 1;
  std::function<void(splitc::Machine&)> parallel;  ///< null = sequential job
  std::function<void()> sequential;
  std::function<void(JobStatus, std::string, std::uint32_t, double, double)>
      finish;  ///< (status, error, procs_used, queue_s, run_s)
};

Pipeline::Pipeline(PipelineOptions options)
    : options_(std::move(options)),
      pool_(options_.pool_size, options_.max_procs, options_.spread_layout),
      queue_(std::make_unique<JobQueue<QueuedJob>>(options_.queue_capacity)) {
  tracer_ = options_.trace != nullptr ? options_.trace : trace::env_tracer();
  if (tracer_ != nullptr && options_.trace_sample_every > 1) {
    // Kernel spans sampled, serve job spans exact (docs/tracing.md).
    tracer_->set_sampling(
        trace::SamplingPolicy::kernels(options_.trace_sample_every));
  }
  workers_.reserve(options_.pool_size);
  for (std::uint32_t i = 0; i < options_.pool_size; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Pipeline::~Pipeline() { shutdown(DrainMode::kDrain); }

template <typename T, typename ParallelFn, typename SequentialFn>
PendingJob<T> Pipeline::enqueue(img::GreyImage image, const JobOptions& job,
                                std::uint32_t procs_cap, ParallelFn parallel,
                                SequentialFn sequential) {
  struct State {
    std::promise<JobResult<T>> promise;
    std::optional<T> value;
  };
  auto state = std::make_shared<State>();
  auto control = std::make_shared<JobControl>(
      next_id_.fetch_add(1, std::memory_order_relaxed));
  PendingJob<T> pending{state->promise.get_future(), control};

  // Routing: an explicit force_procs runs the parallel path at exactly
  // that width (shape incompatibilities degrade); otherwise pick p from
  // the image size, additionally capped by the job kind (procs_cap).
  std::uint32_t procs;
  bool parallel_path;
  if (job.force_procs > 0) {
    procs = std::min(std::bit_floor(job.force_procs), options_.max_procs);
    parallel_path = true;
  } else {
    procs = std::min(choose_procs(image.height(), image.width(), options_),
                     procs_cap);
    parallel_path = procs > 1;
  }

  auto shared_image =
      std::make_shared<const img::GreyImage>(std::move(image));

  QueuedJob queued;
  queued.id = control->id();
  queued.control = control;
  queued.submitted = Clock::now();
  if (job.deadline) queued.deadline = queued.submitted + *job.deadline;
  queued.procs = procs;
  if (parallel_path) {
    queued.parallel = [state, shared_image,
                       parallel](splitc::Machine& machine) {
      state->value = parallel(machine, *shared_image);
    };
  }
  queued.sequential = [state, shared_image, sequential] {
    state->value = sequential(*shared_image);
  };
  queued.finish = [state](JobStatus status, std::string error,
                          std::uint32_t procs_used, double queue_s,
                          double run_s) {
    JobResult<T> result;
    result.status = status;
    result.error = std::move(error);
    result.procs = procs_used;
    result.queue_s = queue_s;
    result.run_s = run_s;
    result.value = std::move(state->value);
    state->promise.set_value(std::move(result));
  };

  const bool accepted = job.overflow == OverflowPolicy::kBlock
                            ? queue_->push(std::move(queued))
                            : queue_->try_push(std::move(queued));
  if (accepted) {
    metrics_.on_submit();
  } else {
    metrics_.on_reject();
    queued.finish(JobStatus::kRejected,
                  queue_->closed() ? "pipeline is shut down"
                                   : "job queue is full",
                  0, 0, 0);
  }
  return pending;
}

PendingJob<std::vector<std::uint32_t>> Pipeline::submit_histogram(
    img::GreyImage image, std::uint32_t k, JobOptions job) {
  return enqueue<std::vector<std::uint32_t>>(
      std::move(image), job, options_.max_procs,
      [k](splitc::Machine& machine, const img::GreyImage& im) {
        return hist::histogram_parallel(machine, im, k);
      },
      [k](const img::GreyImage& im) { return hist::histogram_seq(im, k); });
}

PendingJob<img::LabelImage> Pipeline::submit_components(img::GreyImage image,
                                                        cc::CcOptions options,
                                                        JobOptions job) {
  return enqueue<img::LabelImage>(
      std::move(image), job, options_.max_procs,
      [options](splitc::Machine& machine, const img::GreyImage& im) {
        return cc::connected_components_parallel(machine, im, options);
      },
      [options](const img::GreyImage& im) {
        return ccseq::label_components_unionfind(im, options.connectivity,
                                                 options.rule);
      });
}

PendingJob<img::GreyImage> Pipeline::submit_equalize(img::GreyImage image,
                                                     std::uint32_t k,
                                                     JobOptions job) {
  // equalize_parallel needs p | k, so auto-routing additionally caps p at
  // k (both powers of two).
  const std::uint32_t cap =
      std::max(1u, std::min(std::bit_floor(k), options_.max_procs));
  return enqueue<img::GreyImage>(
      std::move(image), job, cap,
      [k](splitc::Machine& machine, const img::GreyImage& im) {
        return equalize_parallel_image(machine, im, k);
      },
      [k](const img::GreyImage& im) { return hist::equalize(im, k); });
}

PendingJob<std::vector<ccseq::ComponentStats>> Pipeline::submit_stats(
    img::GreyImage image, cc::CcOptions options, JobOptions job) {
  return enqueue<std::vector<ccseq::ComponentStats>>(
      std::move(image), job, options_.max_procs,
      [options](splitc::Machine& machine, const img::GreyImage& im) {
        return stats_parallel_image(machine, im, options);
      },
      [options](const img::GreyImage& im) {
        const auto labels = ccseq::label_components_unionfind(
            im, options.connectivity, options.rule);
        return ccseq::component_stats(im, labels);
      });
}

void Pipeline::worker_loop(std::uint32_t worker) {
  const std::uint32_t tid = trace::serve_tid(worker);
  // Serve-layer spans are recorded after the fact from the job's own
  // timestamps (the same ones the latency metrics use), so the trace and
  // the metrics always agree on every interval.
  const auto record = [&](const char* name, Clock::time_point from,
                          Clock::time_point to, std::uint64_t arg) {
    // Serve spans bypass trace::Scope (recorded after the fact from the
    // job's timestamps), so they consult the sampling gate themselves.
    // The serve category defaults to rate 1 — exact per-job spans — and
    // trace_sample_every never touches it, but an explicit
    // HISTCC_TRACE=...:serve=N is still honored here.
    if (tracer_ == nullptr || !tracer_->enabled() ||
        !tracer_->should_record(name)) {
      return;
    }
    trace::Span span;
    span.name = name;
    span.tid = tid;
    span.t0_ns = tracer_->to_ns(from);
    span.t1_ns = tracer_->to_ns(to);
    span.arg = arg;
    tracer_->record_span(span);
  };
  // PoolMetrics -> trace bridge: sample the two gauges at the points
  // they change so the counter tracks mirror Pipeline::metrics().
  const auto sample_gauges = [&] {
    if (tracer_ == nullptr || !tracer_->enabled()) return;
    const std::int64_t now = tracer_->now_ns();
    tracer_->record_counter({"serve/queue_depth", tid, now,
                             static_cast<double>(queue_->size())});
    tracer_->record_counter({"serve/in_flight", tid, now,
                             static_cast<double>(metrics_.in_flight())});
  };
  for (;;) {
    auto popped = queue_->pop();
    if (!popped) return;  // closed and drained
    QueuedJob job = std::move(*popped);
    const auto dequeued = Clock::now();
    const double queue_s = seconds_between(job.submitted, dequeued);
    metrics_.on_dequeue(queue_s);
    record("serve/queue", job.submitted, dequeued, job.id);
    sample_gauges();

    JobStatus status = JobStatus::kOk;
    std::string error;
    std::uint32_t procs_used = 0;
    double run_s = 0;

    if (job.control && job.control->cancelled()) {
      status = JobStatus::kCancelled;
      error = "cancelled while queued";
    } else if (job.deadline && dequeued > *job.deadline) {
      status = JobStatus::kTimedOut;
      error = "deadline expired while queued";
    } else {
      const auto started = Clock::now();
      auto run_sequential = [&] {
        try {
          job.sequential();
          procs_used = 1;
          return true;
        } catch (const std::exception& e) {
          status = JobStatus::kFailed;
          error += error.empty() ? "" : "; sequential fallback: ";
          error += e.what();
        } catch (...) {
          status = JobStatus::kFailed;
          error += error.empty() ? "" : "; ";
          error += "sequential path threw a non-standard exception";
        }
        return false;
      };
      if (job.parallel) {
        bool parallel_ok = false;
        std::string parallel_error;
        try {
          auto lease = pool_.acquire(job.procs);
          record("serve/lease", started, Clock::now(), job.id);
          MachineTraceGuard trace_guard(lease.machine(), tracer_);
          if (options_.before_parallel) options_.before_parallel();
          job.parallel(lease.machine());
          procs_used = job.procs;
          parallel_ok = true;
        } catch (const std::exception& e) {
          parallel_error = e.what();
        } catch (...) {
          parallel_error = "parallel path threw a non-standard exception";
        }
        if (!parallel_ok) {
          // Degrade, never drop: the sequential reference serves the job.
          error = parallel_error;
          const auto degrade_started = Clock::now();
          if (run_sequential()) status = JobStatus::kDegraded;
          record("serve/degrade", degrade_started, Clock::now(), job.id);
        }
      } else {
        run_sequential();
      }
      const auto finished = Clock::now();
      run_s = seconds_between(started, finished);
      record("serve/run", started, finished, job.id);
      if (status != JobStatus::kFailed && job.deadline &&
          finished > *job.deadline) {
        status = JobStatus::kTimedOut;
        if (error.empty()) error = "run completed past its deadline";
      }
    }

    // Record before resolving the future: a caller that has observed the
    // result must also observe its effect on the metrics.
    metrics_.on_finish(status, queue_s + run_s, run_s);
    sample_gauges();
    job.finish(status, std::move(error), procs_used, queue_s, run_s);
  }
}

void Pipeline::finish_cancelled(QueuedJob& job) {
  const double queue_s = seconds_between(job.submitted, Clock::now());
  metrics_.on_dequeue(queue_s);
  metrics_.on_finish(JobStatus::kCancelled, queue_s, 0);
  job.finish(JobStatus::kCancelled, "pipeline shut down before execution", 0,
             queue_s, 0);
}

void Pipeline::shutdown(DrainMode mode) {
  {
    std::scoped_lock lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_->close();
  if (mode == DrainMode::kAbort) {
    for (auto& job : queue_->drain()) finish_cancelled(job);
  }
  for (auto& t : workers_) t.join();
  workers_.clear();
}

PoolMetrics Pipeline::metrics() const {
  return metrics_.snapshot(queue_->size(), pool_.slots(),
                           pool_.machines_built());
}

}  // namespace histcc::serve
