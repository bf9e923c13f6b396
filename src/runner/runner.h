#ifndef PPFR_RUNNER_RUNNER_H_
#define PPFR_RUNNER_RUNNER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/recoverable.h"
#include "runner/journal.h"
#include "runner/run_cache.h"
#include "runner/scenario.h"

namespace ppfr::runner {

// The exception a pipeline stage raises on a DATA-DEPENDENT, recoverable
// failure (non-finite loss, block-CG collapse after fallback, a disk-cache
// read race, an injected fault). RunSweep catches it at the cell boundary:
// transient errors retry with bounded backoff, the rest mark the one cell
// `failed` while the grid completes. See common/recoverable.h.
using CellError = ppfr::RecoverableError;

struct RunnerOptions {
  // Concurrent cells. 1 = serial on the calling thread with the process-wide
  // backend (the historical bench behaviour); > 1 fans independent cells
  // across worker threads, each pinned to a private single-threaded backend
  // of the active kind (la::ThreadLocalBackendGuard), which keeps results
  // bitwise identical to the serial order. <= 0 picks the active backend's
  // thread count.
  int threads = 1;
  uint64_t env_seed = core::kDefaultEnvSeed;
  bool verbose = true;  // per-cell progress lines on stderr
  // Extra attempts for a cell that failed with a TRANSIENT CellError (cache
  // read races, injected faults). Deterministic failures never retry.
  int max_cell_retries = 2;
  // Backoff before retry r (0-based) is retry_backoff_ms << r, capped at
  // 250ms. 0 disables sleeping (tests).
  int retry_backoff_ms = 10;
  // Non-empty enables the crash-safety journal (runner/journal.h): every
  // finished or failed cell appends a checksummed record to this file.
  std::string journal_path;
  // Replay journal_path before running: cells with a valid completed record
  // are restored from it (marked `resumed`, zero recompute) and only the
  // rest are scheduled. Previously FAILED cells re-run — a resume is the
  // natural moment to give them another chance. Requires journal_path.
  bool resume = false;
  // Fleet sharding: with shard_count > 1, this process runs only the
  // expanded (cell × seed) instances k (ExpandCells order) with
  // k % shard_count == shard_index — a deterministic function of the grid
  // alone, so the partition is identical across machines, resumes and the
  // merge. SweepResult::cells then holds ONLY the owned instances (in grid
  // order); runner::MergeShards reassembles the full grid from the shard
  // journals. shard_index must be in [0, shard_count).
  int shard_index = 0;
  int shard_count = 1;
  // Graceful-interrupt flag (set from a SIGTERM/SIGINT handler). When it
  // reads true, cells not yet started are marked `skipped` (NOT journaled —
  // a resume recomputes them) while in-flight cells finish and journal
  // normally, and the result comes back with interrupted=true. null = never
  // stop.
  const std::atomic<bool>* stop = nullptr;
};

struct CellResult {
  Scenario scenario;
  std::shared_ptr<const core::MethodRun> run;
  core::EvalResult vanilla_eval;  // vanilla baseline of the same (dataset, model)
  core::DeltaMetrics delta;       // vs vanilla_eval; zeros for vanilla cells
  uint64_t seed = 0;       // resolved method seed this instance ran with
  double seconds = 0.0;
  bool cache_hit = false;  // the whole cell came out of the run cache
  // The cell failed with a CellError after retries; `run` holds the NaN
  // placeholder (no model), `error` the reason. Failed cells are excluded
  // from AggregateCells and emitted with status "failed" in the artifact.
  bool failed = false;
  std::string error;
  int retries = 0;      // transient-failure attempts burned on this cell
  bool resumed = false;  // restored from the sweep journal, not computed
  // Not computed because a graceful interrupt (RunnerOptions::stop) landed
  // before this cell started; carries the NaN placeholder, excluded from
  // aggregates, status "skipped". Never journaled, so a resume recomputes.
  bool skipped = false;
  // Merge-only: no shard journal delivered a record for this cell (its shard
  // is missing, crashed before finishing it, or its record failed replay).
  // NaN placeholder, excluded from aggregates, status "missing".
  bool missing = false;
  // Bench-specific scalar metrics merged into the JSON artifact (e.g.
  // table2's Pearson r); keyed by metric name.
  std::map<std::string, double> extra;
};

struct SweepResult {
  std::string name;
  std::string title;
  // One entry per scheduled run. With a seed list the sweep is expanded
  // seed-major: cells[s * base + i] is base cell i under seeds[s], so each
  // seed block preserves the sweep's vanilla-first cell order.
  std::vector<CellResult> cells;
  std::vector<uint64_t> seeds;  // expansion list; empty = single-seed run
  double wall_seconds = 0.0;
  int threads = 1;
  uint64_t env_seed = 0;
  RunCache::Stats cache_stats;      // cache state delta over this sweep
  int64_t trainer_invocations = 0;  // nn::Train calls during this sweep
  int64_t failed_cells = 0;         // cells that ended in `failed` state
  int64_t resumed_cells = 0;        // cells restored from the journal
  // "i/N" when this result is one shard of a sharded run (its `cells` then
  // cover only the owned grid instances). Empty for an unsharded run AND for
  // a merged result — the merged artifact of a complete fleet is bitwise
  // identical to the unsharded artifact, shard provenance included.
  std::string shard;
  // A graceful interrupt landed mid-sweep; `skipped_cells` instances were
  // never started. Both stay REAL in stable artifacts — an interrupted run
  // legitimately differs from a completed one.
  bool interrupted = false;
  int64_t skipped_cells = 0;
  // Merge-only degradation report (all zero/empty elsewhere, including on a
  // complete merge): shard indices whose journal was absent or unreadable,
  // cells no shard delivered, and cells where two shards delivered
  // NON-identical records (lowest shard index wins deterministically).
  std::vector<int> missing_shards;
  int64_t missing_cells = 0;
  int64_t conflicting_cells = 0;
};

// Mean / stddev / per-seed values of one metric across the seed instances of
// one logical cell. stddev is the sample standard deviation (n-1), 0 for a
// single value; non-finite values propagate into the mean so the artifact's
// *_finite markers flag them.
struct MetricAggregate {
  std::vector<double> values;  // in SweepResult::seeds order
  double mean = 0.0;
  double stddev = 0.0;
};

struct CellAggregate {
  Scenario scenario;            // representative (first seed instance)
  std::vector<uint64_t> seeds;  // seeds contributing, aligned with values
  // Keyed by metric name: the four eval metrics, the four deltas, and any
  // bench-attached extras present on every instance.
  std::map<std::string, MetricAggregate> metrics;
};

// Groups the result's cells by (dataset, model, method, label) in first-
// appearance order and aggregates every metric across seeds. Failed cells
// are skipped entirely — their NaN placeholders would poison every mean —
// so a group's `seeds` lists only the instances that actually finished.
// Called by WriteArtifact at emission time so bench-attached `extra` metrics
// are included; exposed for tests and the paper-table renderers.
std::vector<CellAggregate> AggregateCells(const SweepResult& result);

// Runs every cell of the sweep through the cache, serially or across the
// cell scheduler (see RunnerOptions::threads). Results are returned in cell
// order regardless of completion order.
SweepResult RunSweep(const Sweep& sweep, RunCache* cache,
                     const RunnerOptions& options = {});

// Resolves a requested scheduler width against the work-item count:
// <= 0 means the active backend's thread count, clamped to [1, n].
int ResolveCellThreads(int threads, size_t n);

// The cell scheduler's worker loop, reusable by benches that fan their own
// per-cell work (e.g. table2's influence correlations): runs fn(i) for every
// i in [0, n). threads (after ResolveCellThreads) == 1 runs inline on the
// caller with the process-wide backend; otherwise `threads` workers (the
// caller participates) drain an index queue, each pinned to a private
// single-threaded backend of the active kind — the determinism discipline
// that keeps results bitwise identical to the serial order. fn must only
// touch per-index state (or internally synchronised services like RunCache).
void ParallelCells(size_t n, int threads, const std::function<void(size_t)>& fn);

// NaN placeholders for cells that produced no numbers (failed, skipped by an
// interrupt, missing from a merge): a model-less MethodRun whose metrics are
// NaN and whose per-distance AUCs are empty, so readers check the cell's
// status first. The artifact's *_finite markers flag them, and
// AggregateCells skips the cell entirely. Shared with runner::MergeShards.
std::shared_ptr<const core::MethodRun> PlaceholderRun();
core::EvalResult NanEvalResult();
core::DeltaMetrics NanDeltaMetrics();

// Rebuilds a CellResult from its journal record (scenario must already be
// set). The restored run carries the recorded eval but NO model (restoring
// skips the compute entirely); a front-end that needs the model takes it
// from the run cache (RunCache::VanillaModel). Used by RunSweep's
// --resume replay and by MergeShards' reassembly — the one deserialization,
// so a merged cell is bit-for-bit what a resumed cell would be.
void RestoreCell(const JournalRecord& rec, CellResult* out);

struct ArtifactOptions {
  // Stable mode zeroes the fields that legitimately vary between otherwise
  // identical runs — wall/cell seconds, cache hit/miss/disk counters,
  // trainer invocations, per-cell cache_hit, retry counts and the
  // resumed markers — so two runs of the same sweep (e.g. cold vs warm
  // --run_cache_dir, or interrupted-then-resumed vs uninterrupted, or a
  // complete shard merge vs the unsharded run) produce bitwise-identical
  // files iff their numeric results are bitwise identical. Degradation
  // state (failed/skipped/missing cells, interrupted, missing_shards,
  // conflicting_cells, the shard tag) stays REAL — a degraded artifact must
  // never read as clean. The schema is unchanged.
  bool stable = false;
  // Appended to the artifact's basename: BENCH_<name><suffix>.json. Used by
  // sharded runs (".shard-<i>of<N>") so per-shard artifacts never collide
  // with the merged/unsharded one in a shared --json_dir.
  std::string filename_suffix;
};

// Writes the uniform BENCH_<name><suffix>.json artifact (schema_version 4:
// fleet fields — sweep-level shard/interrupted/skipped_cells/missing_cells/
// missing_shards/conflicting_cells, per-cell status values "skipped" and
// "missing" — on top of v3's per-cell status/error/retries/resumed and
// failed/resumed counts); returns its path.
std::string WriteArtifact(const SweepResult& result, const std::string& dir = ".",
                          const ArtifactOptions& options = {});

// First cell matching (dataset, model, method); nullptr when absent.
const CellResult* FindCell(const SweepResult& result, data::DatasetId dataset,
                           nn::ModelKind model, core::MethodKind method);
// First cell with the given display label; nullptr when absent.
const CellResult* FindCellByLabel(const SweepResult& result,
                                  const std::string& label);

}  // namespace ppfr::runner

#endif  // PPFR_RUNNER_RUNNER_H_
