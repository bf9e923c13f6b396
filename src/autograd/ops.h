#ifndef PPFR_AUTOGRAD_OPS_H_
#define PPFR_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/tape.h"
#include "la/csr_matrix.h"

namespace ppfr::ag {

// A sparse matrix prepared for use inside the autograd graph. The transpose
// is carried along because backward passes multiply by it; for symmetric
// operators (Â, Laplacians) it aliases the forward matrix.
struct SparseOperand {
  la::CsrMatrix mat;
  la::CsrMatrix mat_t;
  bool symmetric = false;
};

// Builds a SparseOperand, computing (or aliasing) the transpose.
std::shared_ptr<const SparseOperand> MakeSparseOperand(la::CsrMatrix m, bool symmetric);

// Destination-grouped edge list used by the fused GAT attention op. Row i
// lists the source nodes j that message into destination i (usually
// including i itself). Full-graph edge sets are square; a block hop's is
// rectangular — destinations are the leading num_dst of num_src source rows.
struct EdgeSet {
  int num_dst = 0;
  int num_src = 0;
  std::vector<int64_t> row_ptr;  // size num_dst + 1
  std::vector<int> col_idx;      // concatenated neighbour lists, each < num_src

  int64_t num_edges() const { return static_cast<int64_t>(col_idx.size()); }
};

// ---- Linear algebra ----

// Dense product a @ b.
Var MatMul(Var a, Var b);
// Sparse-dense product sp @ x.
Var SpMM(const std::shared_ptr<const SparseOperand>& sp, Var x);
// sp @ x for a sparse constant x: a grad-free node on `tape`, bitwise equal
// to SpMM over x's dense form (GraphSAGE's layer-1 neighbour mean A·X).
Var SpMM(Tape& tape, const std::shared_ptr<const SparseOperand>& sp,
         const la::CsrMatrix& x);

// The sparse feature projection x[0:rows]·w: the leading `rows` rows of a
// constant CSR x (layer-1 bag-of-words features) times a dense weight. `w` is
// lane-wide with `lanes` windows, x lane-shared. Forward and weight gradient
// are bitwise equal to MatMulLanes over x's dense leading rows (see the
// la::CsrGemmLanes family); the gradient is a row scatter of x_r ⊗ g_r over
// the output gradient's row support when one is known, else over all rows.
Var CsrMatMulLanes(const std::shared_ptr<const la::CsrMatrix>& x, Var w, int lanes,
                   int rows);

// ---- Lane-blocked ops (fused multi-point tape replay) ----
//
// A lane-wide tensor of base width w stores replay lane l in columns
// [l·w, (l+1)·w). The lane ops below run `lanes` independent copies of the
// narrow op in one pass; per-lane column windows never mix, and each lane's
// forward/backward is bitwise identical to the narrow op applied to that
// lane's windows (the la::Backend::GemmLanes* contract). SpMM, elementwise
// ops, AddRowVec and GatherRows are column-count-invariant per element, so
// the lane-wide graph reuses them UNCHANGED — only ops that contract over
// columns (GEMM), mix a row's columns (softmax, NLL picks) or place columns
// (ConcatCols) need to know the lane count.
//
// Multi-head GAT tensors nest heads inside lanes: lane-major [lane][head][d],
// i.e. (lane l, head h) owns columns [(l·H + h)·d, (l·H + h + 1)·d). The L·H
// (lane, head) pairs are then independent blocks of width d, so a lane op
// given `lanes` = L·H treats every head of every lane as its own lane.

// Lane-blocked dense product. `a` is lane-shared when a.cols() == b.rows()
// (e.g. the feature matrix under a lane-wide weight; must not need grad for
// lanes > 1 — a shared operand's gradient would sum over lanes, which no
// fused-replay consumer needs), otherwise lane-wide. lanes == 1 is exactly
// MatMul.
Var MatMulLanes(Var a, Var b, int lanes);

// Lane-blocked row-wise log-softmax: an independent stable log-softmax over
// every lane window of each row. lanes == 1 is exactly LogSoftmaxRows.
Var LogSoftmaxRowsLanes(Var logits, int lanes);

// Lane-blocked weighted NLL: the scalar output is the SUM over lanes of the
// narrow WeightedNll loss evaluated on that lane's window. Backward writes
// each lane's picked entries with the same per-entry arithmetic as the
// narrow op under a unit seed, so lane gradients are bitwise identical to
// `lanes` serial replays. lanes == 1 is exactly WeightedNll.
Var WeightedNllLanes(Var logp, const std::vector<int>& rows,
                     const std::vector<int>& labels,
                     const std::vector<double>& weights, double denom, int lanes);

// ---- Elementwise / broadcast ----

Var Add(Var a, Var b);
Var Sub(Var a, Var b);
Var Mul(Var a, Var b);  // Hadamard
Var Div(Var a, Var b);  // elementwise a / b
Var Neg(Var a);
Var Scale(Var a, double s);
Var AddScalar(Var a, double s);
// Adds a 1 x c row vector to every row of an n x c matrix.
Var AddRowVec(Var a, Var row);
// Broadcasts a 1x1 scalar node to an (rows x cols) matrix.
Var ExpandScalar(Var s, int rows, int cols);

// ---- Nonlinearities ----

Var Relu(Var a);
Var LeakyRelu(Var a, double slope);
Var Elu(Var a, double alpha = 1.0);
Var Tanh(Var a);
Var Sigmoid(Var a);
Var Square(Var a);
Var Sqrt(Var a);   // clamped at 1e-12 for gradient stability
Var Abs(Var a);

// ---- Softmax / losses ----

Var LogSoftmaxRows(Var logits);
Var SoftmaxRows(Var logits);

// Weighted negative log-likelihood over a subset of rows:
//   loss = -(1 / denom) * sum_k weights[k] * logp(rows[k], labels[k])
// `logp` must be log-probabilities (e.g. from LogSoftmaxRows).
Var WeightedNll(Var logp, const std::vector<int>& rows, const std::vector<int>& labels,
                const std::vector<double>& weights, double denom);

// ---- Shape ops / reductions ----

Var GatherRows(Var a, const std::vector<int>& indices);
// Column concatenation, lane by lane: every part is lane-wide with `lanes`
// windows, and output lane l is [part_0 lane l | part_1 lane l | …]. With the
// per-head GAT weights as parts this builds the [lane][head][d] layout;
// lanes == 1 is the plain concatenation.
Var ConcatCols(const std::vector<Var>& parts, int lanes = 1);
Var SumAll(Var a);   // -> 1x1
Var MeanAll(Var a);  // -> 1x1
Var RowSums(Var a);  // n x c -> n x 1

// ---- Graph-specific fused ops ----

// Quadratic form Tr(Yᵀ L Y) for a fixed symmetric Laplacian L (1x1 output).
// Backward: dL/dY = 2 L Y. This is the InFoRM individual-fairness bias term.
Var LaplacianQuadratic(const std::shared_ptr<const la::CsrMatrix>& laplacian, Var y);

// Fused GAT attention over `heads` independent heads of width d. `h` is
// num_src x (heads·d) projected features and attn_left / attn_right are
// d x heads attention vectors (one column per head). For every head h and
// destination i:
//   sl(i,h) = h_i[h-block] · attn_left[:,h],  sr(j,h) = h_j[h-block] · attn_right[:,h]
//   z_ij = sl(i,h) + sr(j,h),  e_ij = LeakyReLU(z_ij, slope)
//   alpha_ij = softmax_j(e_ij)  over j in N(i)
//   out_i[h-block] = sum_j alpha_ij * h_j[h-block]
// Destination i is source row i (the block prefix property) and the output
// has num_dst rows. Heads never mix: one call over H heads is bitwise H
// one-head calls on the heads' columns, so the lane-wide graph passes
// lanes·heads as `heads` over the [lane][head][d] layout.
Var GatAttention(Var h, Var attn_left, Var attn_right,
                 const std::shared_ptr<const EdgeSet>& edges, int heads,
                 double leaky_slope);

}  // namespace ppfr::ag

#endif  // PPFR_AUTOGRAD_OPS_H_
