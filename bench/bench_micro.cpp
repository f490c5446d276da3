// Google-benchmark microbenchmarks of the sequential kernels and runtime
// primitives on the host: sorting (footnotes 3-4), sequential labelers,
// tile labeling, border merging, and the hybrid-sort threshold ablation.
#include <benchmark/benchmark.h>

#include "bench_util.hpp"

namespace {

using namespace histcc;

void BM_RadixSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  std::vector<std::uint32_t> base(n);
  for (auto& k : base) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) {
    auto keys = base;
    sortutil::radix_sort_by(keys, [](std::uint32_t k) { return k; });
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RadixSort)->Range(64, 1 << 16);

void BM_StdSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(n);
  std::vector<std::uint32_t> base(n);
  for (auto& k : base) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) {
    auto keys = base;
    std::sort(keys.begin(), keys.end());
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StdSort)->Range(64, 1 << 16);

void BM_HybridSortThreshold(benchmark::State& state) {
  // Threshold ablation: sort many borders of length 96 (typical border
  // size q) with a given hybrid threshold.
  const auto threshold = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<std::uint32_t> base(96);
  for (auto& k : base) k = static_cast<std::uint32_t>(rng.next_below(1u << 18));
  for (auto _ : state) {
    auto keys = base;
    sortutil::hybrid_sort_by(
        keys, [](std::uint32_t k) { return k; }, threshold);
    benchmark::DoNotOptimize(keys.data());
  }
}
BENCHMARK(BM_HybridSortThreshold)->Arg(0)->Arg(64)->Arg(96)->Arg(128)->Arg(1 << 20);

void BM_SequentialBfsLabel(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto image = img::make_percolation(n, 0.6, 3);
  for (auto _ : state) {
    auto labels = ccseq::label_components_bfs(image);
    benchmark::DoNotOptimize(labels.pixels().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_SequentialBfsLabel)->Arg(128)->Arg(256)->Arg(512);

void BM_SequentialUnionFind(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto image = img::make_percolation(n, 0.6, 3);
  for (auto _ : state) {
    auto labels = ccseq::label_components_unionfind(image);
    benchmark::DoNotOptimize(labels.pixels().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_SequentialUnionFind)->Arg(128)->Arg(256)->Arg(512);

void BM_LabelTile(benchmark::State& state) {
  bench::TileKernels tile(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    tile.label();
    benchmark::DoNotOptimize(tile.labels().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tile.pixels()));
}
BENCHMARK(BM_LabelTile)->Arg(512);

void BM_FinalHookPass(benchmark::State& state) {
  bench::TileKernels tile(static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    tile.final_pass();
    benchmark::DoNotOptimize(tile.labels().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tile.pixels()));
}
BENCHMARK(BM_FinalHookPass)->Arg(512);

void BM_MergeBorder(benchmark::State& state) {
  const auto s = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::vector<std::uint8_t> lo_px(s), hi_px(s);
  std::vector<std::uint32_t> lo_lb(s), hi_lb(s);
  std::uint32_t run = 2;
  for (std::size_t i = 0; i < s; ++i) {
    if (i % 6 == 0) run += 2;
    lo_px[i] = rng.next_bool(0.7);
    hi_px[i] = rng.next_bool(0.7);
    lo_lb[i] = lo_px[i] ? run : 0;
    hi_lb[i] = hi_px[i] ? run + 1001 : 0;
  }
  for (auto _ : state) {
    auto changes = cc::merge_border({lo_px, lo_lb}, {hi_px, hi_lb},
                                    ccseq::Connectivity::kEight,
                                    ccseq::ColourRule::kBinary);
    benchmark::DoNotOptimize(changes.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s));
}
BENCHMARK(BM_MergeBorder)->Range(256, 1 << 14);

void BM_ParallelCcWall(benchmark::State& state) {
  // Host wall-clock of the full parallel algorithm; p fixed to the host's
  // hardware concurrency rounded down to a power of two, n swept.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t p = std::bit_floor(hw);
  const auto image = img::make_darpa_like(n);
  splitc::Machine machine(p);
  cc::CcOptions options;
  options.rule = ccseq::ColourRule::kSameColour;
  for (auto _ : state) {
    auto labels = cc::connected_components_parallel(machine, image, options);
    benchmark::DoNotOptimize(labels.pixels().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * n);
}
BENCHMARK(BM_ParallelCcWall)->Arg(256)->Arg(512);

}  // namespace

BENCHMARK_MAIN();
