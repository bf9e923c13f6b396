#ifndef PPFR_INFLUENCE_INFLUENCE_H_
#define PPFR_INFLUENCE_INFLUENCE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "influence/hvp.h"
#include "influence/tape_pool.h"
#include "la/csr_matrix.h"
#include "nn/models.h"
#include "nn/trainer.h"
#include "privacy/attack/pair_sampler.h"

namespace ppfr::influence {

// Builds an evaluation function f(θ) as an autograd expression over the
// model's logits (the trailing argument is the logits node).
using FunctionBuilder = std::function<ag::Var(ag::Tape&, ag::Var)>;

struct InfluenceConfig {
  CgOptions cg;

  // Lanes for the pooled per-node backward (TapePool); <= 0 resolves to the
  // active backend's thread count, capped at 8 — so PPFR_LA_THREADS /
  // --la_threads size both the kernel pool and the tape pool.
  int tape_pool_lanes = 0;

  // Columns per block in the multi-RHS inverse-HVP solve (InfluenceOnFunctions
  // / InfluenceOnNodeLosses). 0 — the default — resolves at runtime from the
  // PPFR_CG_BLOCK environment variable, else 8; 1 disables blocking, so every
  // RHS runs through the single-RHS bitwise oracle. The resolved value for a
  // fixed RHS set is deterministic: the same block width always produces the
  // same bits regardless of thread or lane counts.
  int cg_block = 0;

  // Fused replay width for probe-gradient evaluation (every inverse-HVP
  // solve): each tape replay evaluates up to this many parameter points at
  // once through a lane-widened loss graph, turning the probe sweep's GEMMs
  // into wide BLAS-3 passes. 0 — the default — resolves from
  // PPFR_REPLAY_LANES, else 8; 1 evaluates one point per replay. Results are
  // bitwise identical at every width: each fused lane's arithmetic IS the
  // width-1 graph's (see autograd/ops.cc lane ops).
  int replay_lanes = 0;

  // Optional cell-scoped warm-pool cache (non-owning). When set, the
  // calculator's shared-forward TapePool and probe GradLanePool are acquired
  // from — and survive in — this cache instead of being rebuilt per
  // calculator and per use-site. The cache must outlive the calculator and
  // must not outlive the model/context (see ReplayCache).
  ReplayCache* replay_cache = nullptr;
};

// The block width a configured cg_block value resolves to at runtime
// (configured if > 0, else the PPFR_CG_BLOCK environment variable, else 8).
// A set PPFR_CG_BLOCK that is not a positive integer aborts.
// Cache keys over FR results mix THIS value, not the raw config field, so
// runs under different environments never share an entry.
int ResolveCgBlock(int configured);

// The fused replay width a configured replay_lanes value resolves to at
// runtime (configured if > 0, else the PPFR_REPLAY_LANES environment
// variable, else 8; a set value that is not a positive integer aborts). Like
// ResolveCgBlock, FR cache keys mix THIS value: the fused path is
// bitwise-identical to serial by design, but keying the resolved width keeps
// any regression attributable instead of silently shared across
// environments.
int ResolveReplayLanes(int configured);

// Aggregate instrumentation over the block solves an InfluenceCalculator has
// issued since construction (or the last Reset) — surfaced into
// BENCH_influence.json's block-sweep rows.
struct BlockSolveStats {
  int solves = 0;            // block solves issued
  int block_iterations = 0;  // outer block iterations, summed over solves
  int grad_evals = 0;        // probe-point gradient evaluations
  int total_rhs = 0;         // RHS columns handled
  int converged_rhs = 0;     // columns meeting the relative-residual tolerance
  // Columns whose solve stopped on non-positive curvature (CgStop).
  int nonpositive_curvature_rhs = 0;
  double algebra_seconds = 0.0;  // wall time in block GEMM/fused kernels
  double algebra_flops = 0.0;    // ≈ flops issued to those kernels

  void Reset() { *this = BlockSolveStats(); }
};

// An exact block with its gathered feature rows (influence.cc).
struct BlockInput;

// Per-training-node influence on scalar evaluation functions f of the
// model's predictions:
//   I_f(v) = -∇θ f(θ*)ᵀ H⁻¹ ∇θ L_v(θ*).
// Under the implicit-function-theorem sign (dθ*/dw_v = -H⁻¹∇L_v) this equals
// |Vl|·df/dw_v, the sensitivity of f to UPWEIGHTING node v — and it equals
// the paper's "leave-v-out" influence I_f(w_v = -1) under its Eq. 9
// convention (which omits the IFT minus sign). Both readings agree on every
// use in this library (QCLP coefficients, Pearson correlation study).
//
// One forward pass is reused for all per-node loss gradients via repeated
// seeded backward passes; H⁻¹∇f is a damped-CG solve per f whose Hessian-
// vector products all evaluate training-loss gradients on pooled model
// clones. No public method writes the model's parameter values or grads.
//
// Every node-local gradient runs over an exact 2-hop block instead of the
// full graph: the training loss, its probe-point replays and the per-node
// ∇L_v over the train set's block, and each target's ∇L_t over its own
// block. Only the evaluation functions f (FunctionGrad) read every node and
// stay full-graph. Block gradients equal the full-graph ones up to float
// summation order.
class InfluenceCalculator {
 public:
  InfluenceCalculator(nn::GnnModel* model, const nn::GraphContext& ctx,
                      std::vector<int> train_nodes, const std::vector<int>& labels,
                      const InfluenceConfig& config);

  // I_f(w_v) for every training node v, given an arbitrary scalar function of
  // the logits. Single-RHS path — the bitwise oracle the block solver is
  // parity-tested against.
  std::vector<double> InfluenceOnFunction(const FunctionBuilder& build_f);

  // Batched influence: out[i][v] = I_{f_i}(w_v). All inverse-HVP solves run
  // through BlockConjugateGradientSolve in blocks of cg_block columns, and
  // the final -SᵀG contraction against the per-node loss gradients is one
  // GEMM-T. Per-column results agree with InfluenceOnFunction to solver
  // tolerance (see the parity tests); with cg_block = 1 they are bitwise
  // identical to it.
  std::vector<std::vector<double>> InfluenceOnFunctions(
      const std::vector<FunctionBuilder>& builders);

  // Influence of every training node on each target node's individual loss:
  // out[t][v] = I_{L_t}(w_v). Each target's gradient RHS comes from a
  // forward over its own exact block, and the RHSs are solved in blocks of
  // cg_block — the per-node influence sweep the paper's correlation study
  // (Table 2) runs, BLAS-3 end to end.
  std::vector<std::vector<double>> InfluenceOnNodeLosses(
      const std::vector<int>& target_nodes);

  // Self-contained builders for the standard evaluation functions, fed to
  // InfluenceOnFunction / InfluenceOnFunctions (each builder owns copies of
  // what it captures):
  //   BiasFunction    — InFoRM bias Tr(softmax(logits)ᵀ L_S softmax(logits));
  //   RiskFunction    — the paper's normalised risk surrogate
  //                     2‖d̄0−d̄1‖/(var d0 + var d1);
  //   UtilityFunction — the (unweighted) training loss itself, utility
  //                     influence (Eq. 11).
  static FunctionBuilder BiasFunction(
      const std::shared_ptr<const la::CsrMatrix>& laplacian);
  static FunctionBuilder RiskFunction(const privacy::PairSample& pairs);
  FunctionBuilder UtilityFunction() const;

  int num_train_nodes() const { return static_cast<int>(train_nodes_.size()); }

  // The block width InfluenceOnFunctions / InfluenceOnNodeLosses will use
  // (config.cg_block, else PPFR_CG_BLOCK, else 8).
  int ResolvedCgBlock() const;

  // The fused replay width BatchTrainGrad will use (config.replay_lanes,
  // else PPFR_REPLAY_LANES, else 8).
  int ResolvedReplayLanes() const;

  // Instrumentation over every block solve issued so far.
  const BlockSolveStats& block_stats() const { return block_stats_; }
  void ResetBlockStats() { block_stats_.Reset(); }

  // Training-loss gradients at explicit parameter points on the block pool:
  // model clones fused to the width a full block of 2·cg_block probe points
  // needs (the real model's parameters are never touched). Public so the
  // engine bench and the lane-invariance tests can drive it directly.
  BatchGradFn BatchTrainGrad();

  // Flat ∇θ L_v for every v, computed from one shared forward pass fanned
  // across a TapePool. Cached after the first call.
  const std::vector<std::vector<double>>& PerNodeLossGrads();

  // The pre-overhaul serial algorithm behind PerNodeLossGrads (one growing
  // tape, a full ZeroAllGrads sweep and a Parameter::grad round-trip per
  // node; overwrites the model's Parameter::grad). Kept as the parity oracle
  // the pooled path must match bit for bit and as the "before" side of
  // bench_influence_engine; never cached, never used by a solve.
  std::vector<std::vector<double>> PerNodeLossGradsSerialReference();

 private:
  // Flat ∇θ f for an arbitrary builder (read from the tape, so the model's
  // Parameter::grad is left alone).
  std::vector<double> FunctionGrad(const FunctionBuilder& build_f);
  // The train set's exact block with its gathered features (built on first
  // use; shared with cache-owned pools that may outlive this calculator).
  const std::shared_ptr<const BlockInput>& TrainBlock();
  // Flat ∇θ L_t for target t, over t's own exact block — so a target's
  // right-hand side is a pure function of t, whatever else is solved with it.
  std::vector<double> NodeLossGradOverOwnBlock(int t);
  // Lanes for pooled per-seed backward / batched probe gradients.
  int ResolvedLanes(int num_items) const;
  // The replay pools' owner: config_.replay_cache when installed, else a
  // calculator-local cache.
  ReplayCache& Pools();
  // The probe-gradient pool sized for calls of up to `max_points` points:
  // fused width min(replay_lanes, max_points), keyed in Pools() by model,
  // train set and geometry.
  GradLanePool* ProbePool(int max_points);
  // The solvers' gradient source. Calls of at most 2 points (single-RHS CG,
  // the block solver's collapse finisher, a block deflated to one direction)
  // run on a width-min(replay_lanes, 2) pool built on first use, so they
  // never replay the block pool's pad lanes; larger calls run on the block
  // pool.
  BatchGradFn SolverGrad();
  // The shared-forward TapePool behind the per-node and per-target gradient
  // sweeps — one pool per calculator (previously one per use-site), acquired
  // from config_.replay_cache when a cell-scoped cache is installed.
  TapePool* SharedForwardPool();
  // Solves (H + λI) S = B in blocks of ResolvedCgBlock() columns,
  // accumulating block_stats_; returns S with one column per RHS column.
  MultiVector SolveRhsBlock(const MultiVector& b);
  // influence[i][v] = -s_iᵀ ∇θL_v for every solution column — one GEMM-T
  // against the cached per-node loss gradients.
  std::vector<std::vector<double>> ContractAgainstNodeGrads(const MultiVector& s);

  nn::GnnModel* model_;
  const nn::GraphContext& ctx_;
  std::vector<int> train_nodes_;
  std::vector<int> train_labels_;
  std::vector<int> labels_;  // full label vector (target-node RHS seeds)
  // The train set's exact block over its distinct nodes in ascending order
  // (built on first use), each train node's row among the block's outputs,
  // and a digest of the train list that keys the block-bound replay pools.
  std::shared_ptr<const BlockInput> train_block_;
  std::vector<int> train_outputs_;
  std::vector<int> train_rows_;
  std::string train_digest_;
  InfluenceConfig config_;
  std::vector<ag::Parameter*> params_;
  std::vector<std::vector<double>> per_node_grads_;  // lazily filled cache
  // Replay pools, owned by Pools() and looked up on first use.
  ReplayCache owned_pools_;
  GradLanePool* block_pool_ = nullptr;
  GradLanePool* pair_pool_ = nullptr;
  TapePool* forward_pool_ = nullptr;
  BlockSolveStats block_stats_;
};

}  // namespace ppfr::influence

#endif  // PPFR_INFLUENCE_INFLUENCE_H_
