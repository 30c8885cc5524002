#include "runtime/shard/worker.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "obs/registry.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"

namespace xr::runtime::shard {

namespace {

// Worker liveness/progress telemetry — the signals the future elastic
// coordinator needs to reassign a stalled shard's lease: the heartbeat
// gauge advances once per flushed chunk, and records_done against
// shard_size is the progress fraction.
struct WorkerMetrics {
  obs::Counter runs{"shard.worker.runs"};
  obs::Counter records_streamed{"shard.worker.records_streamed"};
  obs::Counter resume_events{"shard.worker.resume_events"};
  obs::Counter chunks{"shard.worker.chunks"};
  obs::Gauge heartbeat_unix_ms{"shard.worker.heartbeat_unix_ms"};
  obs::Gauge records_done{"shard.worker.records_done"};
  obs::Gauge shard_size{"shard.worker.shard_size"};
  obs::Gauge shard_id{"shard.worker.shard_id"};

  static WorkerMetrics& get() {
    static WorkerMetrics m;
    return m;
  }

  void beat(std::size_t done) {
    records_done.set(double(done));
    heartbeat_unix_ms.set(double(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count()));
  }
};

/// Sequential reader over this shard's pass-1 (coarse) record stream for
/// the hybrid pass-2 leg. The coarse stream enumerates exactly the same
/// global indices in the same order as the pass-2 stream (same shard of
/// the same plan), so the reader only ever moves forward one record per
/// local index.
class CoarseStream {
 public:
  explicit CoarseStream(const std::string& stem) : source_(record_path(stem)) {}

  void skip(std::size_t records) {
    ParsedRecord r;
    while (records-- > 0) next(r);
  }

  void next(ParsedRecord& r) {
    if (!source_.next(r))
      throw std::runtime_error(
          "run_worker: coarse record stream " + source_.path() +
          " ended early — the coarse pass must be complete before the "
          "refinement pass");
  }

 private:
  RecordSource source_;
};

/// Pass-2 guard: the coarse stream this leg copies from must exist, be
/// this exact shard of this exact coarse sweep, and be complete. Its
/// header names the shard and sweep; folding it counts its records (a
/// torn or corrupt stream throws its own named error).
void check_coarse_complete(const std::string& coarse_path,
                           const ShardIdentity& coarse_id,
                           std::size_t shard_n) {
  std::error_code ec;
  if (!std::filesystem::exists(coarse_path, ec))
    throw std::runtime_error(
        "run_worker: refinement pass needs the coarse record stream " +
        coarse_path + " — run the coarse pass (adaptive_pass 1) first");
  const ShardIdentity existing = read_binary_header(coarse_path).id;
  if (existing.shard_id != coarse_id.shard_id ||
      existing.shard_count != coarse_id.shard_count ||
      existing.strategy != coarse_id.strategy ||
      existing.grid_size != coarse_id.grid_size ||
      existing.grid_fingerprint != coarse_id.grid_fingerprint)
    throw std::runtime_error(
        "run_worker: " + coarse_path +
        " does not belong to this shard's coarse pass (different grid, "
        "evaluator, adaptive block, or partition)");
  const std::size_t records = fold_binary_partial(coarse_path).evaluated();
  if (records != shard_n)
    throw std::runtime_error(
        "run_worker: coarse record stream " + coarse_path +
        " is incomplete (" + std::to_string(records) + " of " +
        std::to_string(shard_n) +
        " records) — finish the coarse pass before refining");
}

}  // namespace

WorkerSpec WorkerSpec::from_request(const runtime::SweepRequest& request,
                                    std::size_t shard_id,
                                    std::size_t shard_count,
                                    ShardStrategy strategy, std::string output,
                                    bool resume) {
  WorkerSpec spec;
  spec.grid = request.grid;
  spec.evaluator = request.evaluator;
  spec.shard_id = shard_id;
  spec.shard_count = shard_count;
  spec.strategy = strategy;
  spec.output = std::move(output);
  spec.chunk_records = request.execution.chunk_records;
  spec.threads = request.execution.threads;
  spec.grain = request.execution.grain;
  spec.metrics = request.execution.metrics;
  spec.resume = resume;
  spec.adaptive = request.adaptive;
  return spec;
}

namespace {

/// The spec checks that need no grid (the refine range check below needs
/// its size). Returns the spec so the run can validate in its initializer.
const WorkerSpec& validated(const WorkerSpec& spec) {
  if (spec.shard_count == 0)
    throw std::invalid_argument("run_worker: shard_count must be >= 1");
  if (spec.shard_id >= spec.shard_count)
    throw std::invalid_argument("run_worker: shard_id out of range");
  if (spec.output.empty())
    throw std::invalid_argument("run_worker: empty output stem");
  if (spec.evaluator.is_ground_truth() && spec.evaluator.frames_per_point == 0)
    throw std::invalid_argument(
        "run_worker: ground-truth evaluator needs frames_per_point >= 1");
  if (!spec.adaptive &&
      (spec.adaptive_pass != 0 || !spec.refine.empty() ||
       !spec.coarse_input.empty()))
    throw std::invalid_argument(
        "run_worker: adaptive_pass/refine/coarse_input require an adaptive "
        "block in the spec");
  if (spec.adaptive) {
    if (!spec.evaluator.is_ground_truth())
      throw std::invalid_argument(
          "run_worker: adaptive fidelity requires the ground_truth "
          "evaluator");
    if (spec.adaptive_pass != 1 && spec.adaptive_pass != 2)
      throw std::invalid_argument(
          "run_worker: adaptive specs must pick a leg — adaptive_pass 1 "
          "(coarse) or 2 (fine/refine)");
    spec.adaptive->validate();
    // A coarse leg always covers its whole shard; silently ignoring a
    // refinement set would run the full sweep as if the restriction
    // applied.
    if (spec.adaptive_pass == 1 &&
        (!spec.refine.empty() || !spec.coarse_input.empty()))
      throw std::invalid_argument(
          "run_worker: refine/coarse_input belong to the fine leg "
          "(adaptive_pass 2); the coarse leg evaluates its whole shard");
  }
  return spec;
}

}  // namespace

struct ShardRun::State {
  explicit State(const WorkerSpec& s);

  /// Open the record stream — scanned and identity-checked when resuming
  /// — and position the coarse stream past the recovered prefix.
  void open(bool resume);

  [[nodiscard]] bool refined(std::size_t g) const {
    return std::binary_search(spec.refine.begin(), spec.refine.end(), g);
  }

  const WorkerSpec spec;
  const bool hybrid;
  const ScenarioGrid grid;
  const ShardPlan plan;
  /// Single normalization point for the chunk size: the sink's flush
  /// cadence and the step loop share this exact value.
  const std::size_t chunk;
  const std::size_t shard_n;
  const core::XrPerformanceModel model;
  /// The evaluator this leg actually runs.
  EvaluatorSpec eval;
  ShardIdentity id;
  SinkOptions options;
  std::unique_ptr<ThreadPool> own_pool;
  ThreadPool* pool = nullptr;
  /// Hybrid (pass-2) leg with indices outside the refinement set: those
  /// records are copied from this shard's coarse stream, not evaluated.
  bool needs_coarse = false;
  std::optional<StreamingSink> sink;
  std::unique_ptr<CoarseStream> coarse;
  /// Records the latest open recovered; reported once, by the next step.
  std::size_t recovered = 0;
  /// The last step stopped mid-chunk: the next one reopens the stem so
  /// the resume scan puts the stream back on the chunk grid.
  bool off_grid = false;
  /// This run's throughput stats, accumulated over its steps (a reopen
  /// rebuilds the sink's reduction, so they live here).
  double wall_ms = 0;
  std::size_t threads = 1;
  /// Set while a step runs; still set after a step threw.
  bool broken = false;
};

ShardRun::State::State(const WorkerSpec& s)
    : spec(validated(s)),
      hybrid(spec.adaptive && spec.adaptive_pass == 2),
      grid(spec.grid.build()),
      plan(grid.size(), spec.shard_count, spec.strategy),
      chunk(std::max<std::size_t>(spec.chunk_records, 1)),
      shard_n(plan.shard_size(spec.shard_id)),
      eval(spec.evaluator) {
  // The sweep fingerprint this leg's stream carries. A coarse leg is an
  // ordinary sweep at coarse fidelity (pass-1 seeds); a fine leg's hybrid
  // stream is stamped with the adaptive fingerprint so it can never be
  // resumed as — or merged with — either single-fidelity sweep.
  std::uint64_t fingerprint = grid_fingerprint(spec.grid, spec.evaluator);
  if (spec.adaptive) {
    if (spec.adaptive_pass == 1) {
      eval = runtime::coarse_evaluator(spec.evaluator, *spec.adaptive);
      fingerprint = grid_fingerprint(spec.grid, eval);
    } else {
      eval = runtime::fine_evaluator(spec.evaluator, *spec.adaptive);
      fingerprint = runtime::adaptive_fingerprint(spec.grid, spec.evaluator,
                                                  *spec.adaptive);
    }
  }
  id = {spec.shard_id, spec.shard_count, spec.strategy, grid.size(),
        fingerprint};
  if (hybrid) {
    for (std::size_t k = 0; k < spec.refine.size(); ++k) {
      if (spec.refine[k] >= grid.size())
        throw std::invalid_argument(
            "run_worker: refine index out of range for the grid");
      if (k > 0 && spec.refine[k] <= spec.refine[k - 1])
        throw std::invalid_argument(
            "run_worker: refine indices must be sorted ascending and "
            "unique");
    }
    for (std::size_t l = 0; l < shard_n && !needs_coarse; ++l)
      needs_coarse = !refined(plan.global_index(spec.shard_id, l));
    // The coarse stream this leg copies from must be complete and this
    // exact shard of this exact coarse sweep.
    if (needs_coarse) {
      if (spec.coarse_input.empty())
        throw std::invalid_argument(
            "run_worker: refinement pass needs coarse_input — this shard "
            "has indices outside the refinement set to copy");
      const ShardIdentity coarse_id{
          spec.shard_id, spec.shard_count, spec.strategy, grid.size(),
          grid_fingerprint(spec.grid, runtime::coarse_evaluator(
                                          spec.evaluator, *spec.adaptive))};
      check_coarse_complete(record_path(spec.coarse_input), coarse_id,
                            shard_n);
    }
  }

  options.output_stem = spec.output;
  options.chunk_records = chunk;
  options.ground_truth = spec.evaluator.is_ground_truth();
  options.metrics_only = spec.metrics;

  // Worker pool per the BatchOptions convention; chunks always land in
  // ascending index order regardless of thread count (the per-point seed
  // depends only on the global index, so threading never changes records).
  if (spec.threads == 0)
    pool = &ThreadPool::shared();
  else if (spec.threads > 1)
    pool = (own_pool = std::make_unique<ThreadPool>(spec.threads)).get();

  open(spec.resume);

  WorkerMetrics& metrics = WorkerMetrics::get();
  metrics.runs.add();
  metrics.shard_id.set(double(spec.shard_id));
  metrics.shard_size.set(double(shard_n));
}

void ShardRun::State::open(bool resume) {
  // Release the current stream before the scan truncates its file.
  coarse.reset();
  sink.reset();
  StreamingSink::Recovery recovery;
  const StreamingSink::Recovery* from = nullptr;
  if (resume) {
    // The scan checks the stream's header against this shard's identity
    // and sweep fingerprint before it truncates anything: a stream of
    // another shard, grid, or evaluator is refused, never clobbered.
    recovery = StreamingSink::scan_existing(options, id, plan);
    from = &recovery;
  }
  sink.emplace(options, id, from);
  recovered = sink->records_written();
  if (recovered > 0) WorkerMetrics::get().resume_events.add();
  if (needs_coarse) {
    // The coarse stream tracks the output stream record for record; a
    // resumed leg starts past the already-delivered prefix.
    coarse = std::make_unique<CoarseStream>(spec.coarse_input);
    coarse->skip(recovered);
  }
  off_grid = false;
}

ShardRun::ShardRun(const WorkerSpec& spec)
    : state_(std::make_unique<State>(spec)) {}

ShardRun::~ShardRun() = default;

WorkerOutcome ShardRun::step(std::size_t max_new_records) {
  State& s = *state_;
  if (s.broken)
    throw std::logic_error(
        "ShardRun: an earlier step failed; reopen the shard with resume");
  s.broken = true;
  if (s.off_grid) s.open(/*resume=*/true);
  StreamingSink& sink = *s.sink;

  WorkerOutcome out;
  out.resumed_records = std::exchange(s.recovered, 0);
  out.records_path = sink.records_path();

  const obs::Span worker_span("worker.run");
  WorkerMetrics& metrics = WorkerMetrics::get();
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t done = sink.records_written();
  metrics.beat(done);
  while (done < s.shard_n) {
    std::size_t m = std::min(s.chunk, s.shard_n - done);
    if (max_new_records)
      m = std::min(m, max_new_records - out.evaluated_records);
    if (m == 0) break;

    // Pull this chunk's coarse records up front — the stream read (decode
    // included) is strictly sequential; evaluation then runs on the pool.
    std::vector<ParsedRecord> coarse_records;
    if (s.coarse) {
      coarse_records.resize(m);
      for (std::size_t j = 0; j < m; ++j) s.coarse->next(coarse_records[j]);
    }

    const auto evaluate = [&](std::size_t j) {
      const std::size_t g = s.plan.global_index(s.spec.shard_id, done + j);
      if (s.hybrid && !s.refined(g)) {
        const ParsedRecord& r = coarse_records[j];
        if (r.index != g)
          throw std::runtime_error(
              "run_worker: coarse record stream misaligned (expected index " +
              std::to_string(g) + ", found " + std::to_string(r.index) + ")");
        if (!r.gt)
          throw std::runtime_error(
              "run_worker: coarse record for index " + std::to_string(g) +
              " carries no ground-truth measurement");
        if (r.slim != s.spec.metrics)
          throw std::runtime_error(
              "run_worker: coarse record shape (slim vs full) disagrees "
              "with this leg's metrics mode — rerun the coarse pass with "
              "the same execution.metrics");
        return EvaluatedPoint{r.report, r.gt};
      }
      return evaluate_point(s.eval, s.model, s.grid.at(g), g);
    };
    std::vector<EvaluatedPoint> points;
    if (s.pool) {
      points = s.pool->map(m, evaluate, s.spec.grain);
    } else {
      points.reserve(m);
      for (std::size_t j = 0; j < m; ++j) points.push_back(evaluate(j));
    }
    for (std::size_t j = 0; j < m; ++j)
      sink.append(s.plan.global_index(s.spec.shard_id, done + j), points[j]);

    done += m;
    out.evaluated_records += m;
    metrics.chunks.add();
    metrics.records_streamed.add(m);
    metrics.beat(done);
    if (max_new_records && out.evaluated_records >= max_new_records) break;
  }
  const auto t1 = std::chrono::steady_clock::now();
  // Accumulate across this run's steps; a step that evaluated nothing
  // keeps the prior thread count (there is no meaningful value for it).
  s.wall_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (out.evaluated_records > 0) s.threads = s.pool ? s.pool->size() : 1;
  sink.set_stats(s.wall_ms, s.threads);

  out.shard_records = done;
  out.complete = done == s.shard_n;
  out.partial = sink.finalize();
  // Every step starts on an empty chunk buffer, so a budget that is not
  // a whole number of chunks ended by flushing an undersized one.
  s.off_grid = !out.complete && out.evaluated_records % s.chunk != 0;
  s.broken = false;
  return out;
}

WorkerOutcome run_worker(const WorkerSpec& spec,
                         std::size_t max_new_records) {
  return ShardRun(spec).step(max_new_records);
}

}  // namespace xr::runtime::shard
