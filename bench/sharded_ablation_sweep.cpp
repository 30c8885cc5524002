// Sharded sweep of the testbed ablation grid — the multi-process path's
// bench twin, run in-process so the measurement is self-contained.
//
// Routes the ablation grid (the same serializable spec
// scripts/sweep_sharded.sh feeds to real sweep_worker processes) through
// the full shard pipeline: ShardPlan partitioning, per-shard run_worker
// with streaming .xrb records + partial reductions, and sweep_merge's
// fold. The merged summary must be bitwise identical to the monolithic
// BatchEvaluator run — the bench exits nonzero when it is not, so a merge
// regression fails the run.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "runtime/shard/merge.h"
#include "runtime/shard/worker.h"

int main() {
  using namespace xr;
  namespace shard = runtime::shard;

  const auto cfg = bench::paper_sweep();
  const runtime::GridSpec grid_spec = testbed::ablation_grid_spec(cfg);
  const auto grid = grid_spec.build();
  constexpr std::size_t kShards = 4;

  // Monolithic reference: one BatchEvaluator pass over the whole grid.
  const runtime::BatchEvaluator engine({}, runtime::BatchOptions{1});
  const auto t0 = std::chrono::steady_clock::now();
  const auto mono = engine.run(grid);
  const auto t1 = std::chrono::steady_clock::now();
  const double mono_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  // Sharded path: K workers, each streaming records + a partial reduction
  // to disk, then the merge fold.
  const std::string dir = bench::bench_out_dir() + "/sharded_ablation";
  std::filesystem::create_directories(dir);
  std::vector<shard::PartialReduction> partials;
  const auto t2 = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < kShards; ++k) {
    shard::WorkerSpec spec;
    spec.grid = grid_spec;
    spec.shard_id = k;
    spec.shard_count = kShards;
    spec.output = dir + "/shard" + std::to_string(k);
    spec.chunk_records = 8;
    const auto outcome = shard::run_worker(spec);
    partials.push_back(outcome.partial);
  }
  const auto merged = shard::merge_partials(partials);
  const auto t3 = std::chrono::steady_clock::now();
  const double sharded_ms =
      std::chrono::duration<double, std::milli>(t3 - t2).count();

  std::string why;
  const bool identical = shard::matches_batch_result(merged, mono, &why);

  std::printf(
      "sharded ablation sweep: %zu scenarios, %zu shards\n"
      "  monolithic BatchEvaluator : %8.3f ms\n"
      "  sharded worker+merge      : %8.3f ms (streaming, bounded memory)\n"
      "  merged == monolithic      : %s%s%s\n",
      grid.size(), kShards, mono_ms, sharded_ms,
      identical ? "yes (bitwise)" : "NO: ", identical ? "" : why.c_str(),
      identical ? "" : " (bug!)");

  char json[384];
  std::snprintf(json, sizeof json,
                "{\"bench\":\"sharded_ablation_sweep\",\"grid_candidates\":"
                "%zu,\"shards\":%zu,\"monolithic_wall_ms\":%.3f,"
                "\"sharded_wall_ms\":%.3f,\"identical\":%s}",
                grid.size(), kShards, mono_ms, sharded_ms,
                identical ? "true" : "false");
  const std::string path =
      bench::bench_out_dir() + "/BENCH_sharded_ablation_sweep.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  std::printf("BENCH_JSON %s\n", json);
  return identical ? 0 : 1;
}
