#ifndef PPFR_INFLUENCE_TAPE_POOL_H_
#define PPFR_INFLUENCE_TAPE_POOL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/tape.h"
#include "common/thread_pool.h"
#include "la/backend.h"

namespace ppfr::influence {

// Parallel per-seed backward over ONE shared forward tape.
//
// Per-training-node loss gradients are embarrassingly parallel across seeds,
// but the autograd tape's backward state is inherently single-consumer, and
// the process-wide ParallelBackend pool must not be entered concurrently.
// TapePool resolves both without duplicating the forward pass: it builds a
// single forward tape (which stays structurally immutable — seeds are
// injected as sparse gradients on the shared output node, never as tail
// nodes), then hands each worker thread a private ag::GradArena for its
// backward bookkeeping plus a private single-threaded backend of the active
// kind. Each seed runs a reachability-pruned sparse-seeded backward, the
// lane-local leaf gradients are flattened, and only the touched gradient
// rows are re-zeroed.
//
// Determinism: which lane computes a seed never affects the result — every
// lane back-propagates through the same forward values, and every kernel is
// deterministic across thread counts — so the output equals the serial
// single-lane path bit for bit for any lane count and either backend.
class TapePool {
 public:
  // Builds the shared forward pass on `tape` and returns the node the
  // per-seed gradients are injected into (e.g. the log-softmax output).
  using Builder = std::function<ag::Var(ag::Tape&)>;
  // Fills seed k's sparse gradient on the shared output node: parallel
  // arrays of (row, col, value) entries. Called with cleared vectors.
  using SeedFn = std::function<void(int seed, std::vector<int>* rows,
                                    std::vector<int>* cols, std::vector<double>* values)>;

  TapePool(const Builder& builder, std::vector<ag::Parameter*> params, int num_lanes);

  // Flat ∇θ(loss_k) for every seed k in [0, num_seeds).
  std::vector<std::vector<double>> PerSeedGrads(int num_seeds, const SeedFn& seed_fn);

  // Replays the shared forward with the parameters' CURRENT values, reusing
  // the recorded tape storage and the worker pool (no per-node matrix
  // allocations). The values produced are bitwise what a fresh construction
  // would compute — the replay runs on the active backend, like the original
  // forward. Only valid with the same parameter set the pool was built over
  // (leaf identity is CHECKed by the tape).
  void Rewarm();

  int num_lanes() const { return num_lanes_; }

 private:
  void RunLane(int seed_begin, int seed_end, const SeedFn& seed_fn,
               std::vector<std::vector<double>>* grads);

  Builder builder_;  // retained for Rewarm
  std::vector<ag::Parameter*> params_;
  ag::Tape tape_;
  ag::Var output_;
  int num_lanes_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // only when num_lanes > 1
};

// A loss graph recorded once and replayed for every subsequent gradient
// evaluation — the tape arena behind every GradLanePool lane (and each
// target's node-loss gradient), instead of a fresh tape per evaluation.
// Gradients are read from the tape-local leaf buffers, so Parameter::grad is
// never clobbered by an influence solve.
class ReusableLossGraph {
 public:
  // `builder` must produce the same expression structure on every call (the
  // tape CHECKs this); parameter VALUES may change between calls.
  using Builder = std::function<ag::Var(ag::Tape&)>;

  ReusableLossGraph(Builder builder, std::vector<ag::Parameter*> params);

  // Flat ∇θ(loss) at the current parameter values.
  std::vector<double> Grad();

 private:
  Builder builder_;
  std::vector<ag::Parameter*> params_;
  ag::Tape tape_;
  bool recorded_ = false;
};

// One lane of batched gradient evaluation: a private parameter set plus a
// recorded loss graph over it. Factories hand the pool a full clone of the
// model state per lane, so probe-point evaluation never touches the caller's
// parameters; `owner` keeps the cloned model alive for the lane's lifetime.
struct GradLane {
  std::vector<ag::Parameter*> params;
  std::unique_ptr<ReusableLossGraph> graph;
  std::shared_ptr<void> owner;
  // Fused lane width: how many parameter points this lane's graph evaluates
  // per replay. Every parameter is WIDENED to `width` column blocks (see
  // nn::WidenModelParams) and the recorded graph is the lane-wide loss graph,
  // whose per-lane arithmetic is bitwise the width-1 graph.
  int width = 1;
};

// Evaluates the loss gradient at many ABSOLUTE parameter points — the
// BatchGradFn engine behind every inverse-HVP solve. Points are processed in
// chunks of `width` per replay of one lane's recorded graph, under a private
// backend of the active kind (the shared ParallelBackend pool is never
// entered concurrently). The chunk grid is FIXED by width alone — chunk c
// always covers points [c·width, (c+1)·width) — and thread lanes take
// contiguous chunk ranges, so results are bitwise invariant to the lane
// count. A short final chunk is padded by replicating its last point; lanes
// are arithmetically independent, so pad lanes never touch a real result.
// Width 1 runs the same grid, where scatter and de-interleave are plain
// copies.
class GradLanePool {
 public:
  // Builds a lane whose graph evaluates `width` points per replay
  // (parameters widened to `width` column blocks).
  using WideLaneFactory = std::function<GradLane(int width)>;

  GradLanePool(const WideLaneFactory& factory, int num_lanes, int width);

  // Flat loss gradient at each point, in point order.
  std::vector<std::vector<double>> GradsAt(
      const std::vector<std::vector<double>>& points);

  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int width() const { return width_; }

 private:
  // Chunks [chunk_begin, chunk_end) on the fixed width_-point grid.
  // `kernel_threads` sizes the worker's private backend (threads left over by
  // having fewer chunk workers than cores).
  void RunChunks(int lane, int chunk_begin, int chunk_end, int kernel_threads,
                 const std::vector<std::vector<double>>& points,
                 std::vector<std::vector<double>>* grads);

  std::vector<GradLane> lanes_;
  int width_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // only when num_lanes > 1
};

// Cell-scoped cache of warm replay pools. The expensive state behind an
// influence solve — recorded forward tapes, per-lane model clones, worker
// threads — depends only on the cell's (model, graph, training set), yet it
// was previously rebuilt per InfluenceCalculator AND per use-site within a
// calculator. Hoisting ownership here lets every consumer in the same cell
// reuse the warm pools: a TapePool is re-warmed (forward replayed at the
// model's current values, allocation-free) on each reacquisition, and a
// GradLanePool needs no refresh at all (it evaluates ABSOLUTE points, so its
// clones' resident values are irrelevant).
//
// Keys name the model object and pool geometry; the cache must therefore not
// outlive the models/contexts its entries were warmed against — its intended
// lifetime is one cell (see core::ComputeFairnessWeights) or one bench
// scenario.
class ReplayCache {
 public:
  TapePool* GetOrCreateTapePool(
      const std::string& key,
      const std::function<std::unique_ptr<TapePool>()>& make);

  GradLanePool* GetOrCreateGradLanes(
      const std::string& key,
      const std::function<std::unique_ptr<GradLanePool>()>& make);

 private:
  std::map<std::string, std::unique_ptr<TapePool>> tape_pools_;
  std::map<std::string, std::unique_ptr<GradLanePool>> grad_lane_pools_;
};

}  // namespace ppfr::influence

#endif  // PPFR_INFLUENCE_TAPE_POOL_H_
