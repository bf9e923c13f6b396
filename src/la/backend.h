#ifndef PPFR_LA_BACKEND_H_
#define PPFR_LA_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "la/csr_matrix.h"
#include "la/matrix.h"

namespace ppfr {
class Flags;
}  // namespace ppfr

namespace ppfr::la {

// Compute backend behind every dense/sparse linear-algebra hot path in the
// library. The free functions in matrix.h, CsrMatrix::Multiply*, and the
// flat-vector helpers in influence/param_vector.h all dispatch through the
// active backend, so autograd, nn, influence and privacy never touch a raw
// kernel directly — swapping the backend re-routes the whole stack.
//
// Implementations:
//   * ReferenceBackend — the original single-threaded loops, kept as the
//     correctness oracle for tests and as the small-problem fallback.
//   * ParallelBackend  — the one production backend: cache-blocked GEMM with
//     packed operands, multi-threaded via common/thread_pool.h, and
//     row-partitioned CSR SpMM. Its leaf loops are plain C++ that the
//     compiler vectorises for the build target (-march=native by default).
//
// Threading contract: kernels fan work out across the pool internally, but
// must be *invoked* from a single orchestration thread at a time (the
// ParallelBackend pool is not reentrant and concurrent entry trips its
// ParallelFor check). Parallelism across independent problems belongs above
// this layer, e.g. the tape-pool design sketched in ROADMAP.md.
class Backend {
 public:
  virtual ~Backend() = default;

  virtual std::string name() const = 0;
  virtual int num_threads() const { return 1; }
  // Always false: no backend runs hand-written SIMD kernels. Kept only for
  // the perfbench host line, which still reads it.
  bool simd_active() const { return false; }

  // Dense GEMM family. `out` must be preallocated to the result shape; the
  // kernels overwrite it.
  virtual void Gemm(const Matrix& a, const Matrix& b, Matrix* out) const = 0;        // a·b
  virtual void GemmTransA(const Matrix& a, const Matrix& b, Matrix* out) const = 0;  // aᵀ·b
  virtual void GemmTransB(const Matrix& a, const Matrix& b, Matrix* out) const = 0;  // a·bᵀ
  virtual void Transpose(const Matrix& a, Matrix* out) const = 0;

  // The k-panel length in which this backend's GEMM family sums an output
  // element of a (rows x cols per lane) result contracting over `inner`
  // terms: terms are added in ascending k, into a partial sum that restarts
  // from zero at every panel boundary and is then added to the element; 0
  // means one running sum over all k. The CSR-left products in csr_matrix.h
  // follow it, which keeps them bitwise equal to the dense GEMM on the same
  // operands.
  virtual int GemmKPanel(int64_t /*rows*/, int64_t /*cols*/,
                         int64_t /*inner*/) const {
    return 0;
  }

  // Elementwise / reduction kernels on matrices.
  virtual void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) const = 0;
  double Dot(const Matrix& a, const Matrix& b) const {
    return VDot(a.data(), b.data(), a.size());
  }

  // Generic range runner for elementwise/row-partitioned loops that have no
  // dedicated kernel (activations, row softmax, gathers). Splits [0, n) into
  // disjoint chunks of at least `grain` indices and invokes fn(begin, end)
  // over them — possibly across threads, so fn must only write per-index
  // state. Because chunks are disjoint and per-index work is independent, the
  // result is bitwise identical for any thread count.
  virtual void Apply(int64_t n, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn) const = 0;

  // Sparse: out += alpha * a * x, row-major dense x/out.
  virtual void SpmmAccum(const CsrMatrix& a, const Matrix& x, double alpha,
                         Matrix* out) const = 0;

  // Support-guided row-subset kernels behind the seeded-backward row-support
  // machinery (autograd GradRefPartial; see matrix.h / csr_matrix.h for the
  // shape contracts, which the free-function wrappers check). The base-class
  // implementations are the serial scalar loops — the correct choice for the
  // small supports a per-node backward produces; ParallelBackend overrides
  // them with threshold-gated threading for large supports (dense graphs),
  // keeping the serial path as the small-support fallback.
  //
  // out(r, :) += g(r, :) · bᵀ for r in rows.   g: (m,n), b: (k,n), out: (m,k).
  virtual void GemmTransBAccumRows(const Matrix& g, const Matrix& b, Matrix* out,
                                   const std::vector<int>& rows) const;
  // out += Σ_{r in rows} a(r, :)ᵀ ⊗ g(r, :).   a: (m,k), g: (m,n), out: (k,n).
  virtual void GemmTransAAccumRows(const Matrix& a, const Matrix& g, Matrix* out,
                                   const std::vector<int>& rows) const;
  // Row-subset SpMM accumulate (CsrMatrix::MultiplyAccumRows): for r in rows,
  // out(r, :) += alpha * Σ_k a(r, k) x(k, :), skipping x rows that
  // `x_row_nonzero` (empty = unknown) marks as zero.
  virtual void SpmmAccumRows(const CsrMatrix& a, const Matrix& x, double alpha,
                             Matrix* out, const std::vector<int>& rows,
                             const std::vector<uint8_t>& x_row_nonzero) const;

  // Lane-blocked GEMM family behind the fused multi-point tape replay
  // (autograd MatMulLanes). A lane-wide matrix of base width w stores lane l
  // in columns [l·w, (l+1)·w); `lanes` copies of a GEMM run in one call, with
  // the operand `a` either SHARED across lanes (detected by shape:
  // a.cols() == b.rows(), e.g. the feature matrix under a lane-wide weight)
  // or itself lane-wide.
  //
  // Bitwise contract (the fused-replay determinism story rests on it): lane
  // l's output window equals the corresponding narrow kernel applied to the
  // lane's operand windows BIT FOR BIT, on every backend and thread count.
  // The base-class implementations are per-lane windowed copies of the naive
  // loops; ParallelBackend re-derives its naive/blocked dispatch decision
  // from the PER-LANE shape (so a lane never flips between the naive
  // mul+add and the blocked-FMA rounding pattern just because it was
  // batched), and runs shared-`a` blocked lanes as ONE wide packed GEMM —
  // the per-element k-panel FMA chain is independent of the total column
  // count, which is exactly where the fusion's BLAS-3 win comes from.
  //
  // out = [a_0·b_0 | … ], a: (m,k) shared or (m,k·L), b: (k,n·L), out: (m,n·L).
  virtual void GemmLanes(const Matrix& a, const Matrix& b, Matrix* out,
                         int lanes) const;
  // out_l = a_lᵀ·b_l, a: (m,k) shared or (m,k·L), b: (m,n·L), out: (k,n·L).
  virtual void GemmLanesTransA(const Matrix& a, const Matrix& b, Matrix* out,
                               int lanes) const;
  // out_l = a_l·b_lᵀ, a: (m,n·L), b: (k,n·L), out: (m,k·L).
  virtual void GemmLanesTransB(const Matrix& a, const Matrix& b, Matrix* out,
                               int lanes) const;
  // Lane-blocked row-support variants of the two Accum kernels below:
  // out_l(r,:) += g_l(r,:)·b_lᵀ for r in rows (g: (m,n·L), b: (k,n·L),
  // out: (m,k·L)), and out_l += Σ_{r in rows} a_l(r,:)ᵀ⊗g_l(r,:) (a: (m,k)
  // shared or (m,k·L), g: (m,n·L), out: (k,n·L)).
  virtual void GemmLanesTransBAccumRows(const Matrix& g, const Matrix& b,
                                        Matrix* out, const std::vector<int>& rows,
                                        int lanes) const;
  virtual void GemmLanesTransAAccumRows(const Matrix& a, const Matrix& g,
                                        Matrix* out, const std::vector<int>& rows,
                                        int lanes) const;

  // Flat-vector kernels (parameter vectors in the influence machinery, and
  // Matrix::Axpy/Scale over the contiguous buffer).
  virtual double VDot(const double* a, const double* b, int64_t n) const = 0;
  virtual void VAxpy(double alpha, const double* x, double* y, int64_t n) const = 0;
  virtual void VScale(double alpha, double* x, int64_t n) const = 0;

  // Fused CG-step kernels — one pass over y where the unfused sequence costs
  // two or three. Contracts (relied on by the influence CG solvers and
  // verified bitwise in tests/la_backend_test.cc):
  //   * VAxpyDot: y += alpha·x, returns yᵀy of the UPDATED y. Bitwise equal
  //     to VAxpy followed by VDot(y, y) on every backend and thread count
  //     (the update is elementwise split-invariant, the reduction follows
  //     VDot's fixed-block partial scheme).
  //   * VDotAxpy: y = x + beta·y elementwise (the CG search-direction
  //     update), returns yᵀy of the updated y; a follow-up VDot(y, y)
  //     reproduces the returned value bit for bit. Deterministic across
  //     thread counts like every other kernel.
  // The base implementations are the unfused compositions, which IS the
  // bitwise definition; ParallelBackend overrides them with genuinely fused
  // single-pass loops.
  virtual double VAxpyDot(double alpha, const double* x, double* y, int64_t n) const;
  virtual double VDotAxpy(double beta, const double* x, double* y, int64_t n) const;
};

enum class BackendKind { kReference, kParallel };

std::string BackendKindName(BackendKind kind);

// Creates a standalone backend instance (used by tests and the bench
// comparison harness; normal code uses the process-wide active backend).
std::unique_ptr<Backend> MakeBackend(BackendKind kind, int num_threads);

// Process-wide active backend. On first use it is initialised from the
// PPFR_LA_BACKEND ("reference"|"parallel"; empty means the default) and
// PPFR_LA_THREADS environment variables, defaulting to the parallel backend
// with one thread per core. Any other backend name aborts.
Backend& ActiveBackend();
BackendKind ActiveBackendKind();

// Replaces the active backend. num_threads <= 0 selects hardware_concurrency.
void SetActiveBackend(BackendKind kind, int num_threads = 0);

// Applies --la_backend=reference|parallel and --la_threads=N command-line
// flags (bench/example binaries call this right after parsing Flags).
void ConfigureBackendFromFlags(const Flags& flags);

// Thread-local backend override, consulted by ActiveBackend() before the
// process-wide instance. This is how parallelism ABOVE the kernel layer is
// made safe: an orchestrator (e.g. influence::TapePool) gives each of its
// worker threads a private single-threaded backend of the active kind, so
// concurrent workers never enter the shared ParallelBackend pool (which is
// not reentrant). Kernels are deterministic across thread counts, so routing
// a worker through a 1-thread clone is bitwise equivalent to the main path.
class ThreadLocalBackendGuard {
 public:
  explicit ThreadLocalBackendGuard(Backend* backend);
  ~ThreadLocalBackendGuard();

  ThreadLocalBackendGuard(const ThreadLocalBackendGuard&) = delete;
  ThreadLocalBackendGuard& operator=(const ThreadLocalBackendGuard&) = delete;

 private:
  Backend* previous_;
};

// RAII backend swap for tests: restores the previous backend on destruction.
class ScopedBackend {
 public:
  ScopedBackend(BackendKind kind, int num_threads = 0);
  ~ScopedBackend();

  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  BackendKind previous_kind_;
  int previous_threads_;
};

}  // namespace ppfr::la

#endif  // PPFR_LA_BACKEND_H_
