// One shard worker: evaluate a grid slice with streaming, resumable output.
//
// run_worker() is the whole of tools/sweep_worker.cpp minus argument
// parsing, kept in the library so tests can drive the exact production code
// path in-process (including kill/resume, via max_new_records). It is one
// ShardRun plus one step: a ShardRun opens the shard once (spec checks,
// grid, resume scan, sink, pool) and then steps through it, so a caller
// that runs a shard in slices — the service worker, one ShardRun per
// lease — scans the stem once instead of once per slice.
//
// A WorkerSpec is an in-memory struct with no document of its own: one
// shard of a runtime::SweepRequest, built by from_request below. The
// request contributes the grid, evaluator, adaptive block, and execution
// mechanics; the shard assignment, output stem, and resume flag are this
// worker's own. A ground_truth evaluator streams per-point simulator
// measurements (seeded from the *global* grid index — see evaluator.h)
// through the same sink as the analytical model.
//
// The worker writes one file, <output>.xrb (binary_stream.h): one record
// per scenario in ascending global index, flushed a chunk at a time.
// Resume checks the stream's header against this shard's identity and
// sweep fingerprint (a foreign stream is refused before anything is
// truncated), truncates any torn tail, rebuilds the reduction from the
// valid prefix on the chunk grid, and continues from the first missing
// record — so a re-run after a kill produces byte-identical outputs to an
// uninterrupted run.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/adaptive.h"
#include "runtime/shard/evaluator.h"
#include "runtime/shard/shard_plan.h"
#include "runtime/shard/streaming_sink.h"
#include "runtime/sweep_request.h"

namespace xr::runtime::shard {

struct WorkerSpec {
  GridSpec grid;
  /// What to run at each point (analytical model or ground-truth
  /// simulation); covered by the sweep fingerprint so resume/merge never
  /// mix evaluators. For adaptive sweeps this is the BASE evaluator — the
  /// per-leg evaluator (coarse_frames/pass 1 or fine_frames/pass 2) is
  /// derived from it and the adaptive block.
  EvaluatorSpec evaluator;
  std::size_t shard_id = 0;
  std::size_t shard_count = 1;
  ShardStrategy strategy = ShardStrategy::kRange;
  /// Output stem: writes <output>.xrb.
  std::string output;
  std::size_t chunk_records = 64;
  /// BatchOptions convention: 0 = shared pool, 1 = strict serial,
  /// N = dedicated pool of N workers (chunks still land in index order).
  std::size_t threads = 1;
  /// Indices per claimed parallel task chunk (0 = auto); see
  /// BatchOptions::grain. Mechanics only, never identity.
  std::size_t grain = 0;
  /// Continue from an existing record stream instead of restarting.
  bool resume = false;

  // ---- adaptive-fidelity legs (see runtime/adaptive.h) -----------------
  /// Engaged → this worker runs one leg of an adaptive sweep; mirrors the
  /// request's adaptive block.
  std::optional<runtime::AdaptiveSpec> adaptive;
  /// Which leg: 1 = coarse (whole shard at coarse_frames), 2 = fine (the
  /// hybrid stream: `refine` indices re-evaluated at fine_frames, every
  /// other record copied from this shard's coarse stream). Required (and
  /// only meaningful) when `adaptive` is engaged.
  std::size_t adaptive_pass = 0;
  /// Pass 2: the refinement set (sorted unique global indices, from
  /// sweep_plan --refine-out / select_refinement).
  std::vector<std::size_t> refine;
  /// Pass 2: this shard's pass-1 output stem. The coarse stream must be
  /// complete and carry the matching coarse identity; may be empty only
  /// when every index of this shard is refined (nothing to copy).
  std::string coarse_input;

  /// This worker's slice of a unified sweep request: grid, evaluator,
  /// adaptive block, and execution mechanics come from the request; the
  /// shard assignment and output stem are the caller's. For adaptive
  /// requests the caller must still pick the leg (adaptive_pass) and, for
  /// pass 2, supply the refinement set and coarse stem.
  [[nodiscard]] static WorkerSpec from_request(
      const runtime::SweepRequest& request, std::size_t shard_id,
      std::size_t shard_count, ShardStrategy strategy,
      std::string output, bool resume = false);
};

struct WorkerOutcome {
  std::size_t shard_records = 0;     ///< records in the stream at exit.
  std::size_t resumed_records = 0;   ///< recovered from disk before it.
  std::size_t evaluated_records = 0; ///< newly evaluated by this run/step.
  bool complete = false;             ///< reached the end of the shard.
  PartialReduction partial;
  std::string records_path;          ///< the <output>.xrb record stream.
};

/// One shard held open across steps. The constructor does everything a
/// run needs once: validate the spec, build the grid and plan, scan and
/// identity-check an existing stream when spec.resume is set (a refused
/// scan throws here), and open the sink, the worker pool, and a fine
/// leg's coarse stream. Every step() ends on a flushed chunk, so
/// destroying the run between steps leaves what a kill between two
/// run_worker calls leaves, and a later resume continues it
/// byte-identically. Throws on invalid specs and I/O failure; a step that
/// throws leaves the run unusable (further steps throw std::logic_error),
/// and the caller reopens the stem with resume.
class ShardRun {
 public:
  explicit ShardRun(const WorkerSpec& spec);
  ~ShardRun();
  ShardRun(const ShardRun&) = delete;
  ShardRun& operator=(const ShardRun&) = delete;

  /// Evaluate up to max_new_records new records (0 = the rest of the
  /// shard) and flush. The outcome's evaluated_records counts this step;
  /// resumed_records counts the records recovered from disk before it
  /// (the opening scan, so 0 on later steps). The outcome's partial
  /// carries the wall time and thread count of this run's steps so far.
  /// Steps of whole chunks keep the stream on the chunk grid; a step that
  /// stops mid-chunk flushes an undersized chunk, and the next step
  /// reopens the stem through the resume scan, as a new run_worker call
  /// would, so outputs stay byte-identical.
  [[nodiscard]] WorkerOutcome step(std::size_t max_new_records = 0);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Run one shard to completion, or until max_new_records new records when
/// non-zero — the kill-simulation hook: the run stops early with a
/// *consistent* flushed prefix, i.e. the state after a kill
/// that landed between chunk flushes. The harsher aftermaths (a torn
/// trailing chunk, a lost unflushed chunk) are covered by the tests that
/// truncate the files by hand; scan_existing handles all of them.
/// Equivalent to ShardRun(spec).step(max_new_records).
/// Throws on invalid specs and I/O failure.
[[nodiscard]] WorkerOutcome run_worker(const WorkerSpec& spec,
                                       std::size_t max_new_records = 0);

}  // namespace xr::runtime::shard
