#include "la/backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/csr_matrix.h"
#include "la/matrix.h"
#include "test_util.h"

namespace ppfr::la {
namespace {

using ::ppfr::testing::RandomMatrix;

// The parallel backend must reproduce the reference oracle within kTol.
constexpr double kTol = 1e-12;

Matrix WithBackend(BackendKind kind, int threads,
                   const std::function<Matrix()>& compute) {
  ScopedBackend scoped(kind, threads);
  return compute();
}

void ExpectBitwiseEqual(const Matrix& want, const Matrix& got) {
  ASSERT_TRUE(got.SameShape(want));
  for (int64_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.data()[i], got.data()[i]) << "flat index " << i;
  }
}

// Checks that the parallel backend reproduces the reference backend for one
// dense computation, across thread counts 1/2/3/4 (1 exercises the inline
// path, 3 an uneven partition, 2 and 4 the acceptance configuration) — and
// that it is bitwise deterministic across those thread counts.
void ExpectBackendParity(const std::function<Matrix()>& compute) {
  const Matrix want = WithBackend(BackendKind::kReference, 1, compute);
  Matrix single_thread;
  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const Matrix got = WithBackend(BackendKind::kParallel, threads, compute);
    ASSERT_TRUE(got.SameShape(want));
    EXPECT_LT(Sub(got, want).MaxAbs(), kTol);
    if (threads == 1) {
      single_thread = got;
    } else {
      ExpectBitwiseEqual(single_thread, got);
    }
  }
}

// setenv/restore guard for the PPFR_LA_* variables the active backend reads.
class ScopedEnvVar {
 public:
  ScopedEnvVar(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) previous_ = old;
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnvVar() {
    if (previous_.has_value()) {
      ::setenv(name_, previous_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> previous_;
};

TEST(BackendEnvDeathTest, MalformedThreadCountAborts) {
  // The active backend reads PPFR_LA_THREADS once per process, so each case
  // runs in a freshly exec'd child ("threadsafe" style) where nothing has
  // touched the backend yet. Only malformed values are tried: a valid large
  // count would start that many threads.
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  {
    ScopedEnvVar env("PPFR_LA_THREADS", "4x");
    EXPECT_DEATH((void)ActiveBackend(), "PPFR_LA_THREADS.*'4x'");
  }
  {
    ScopedEnvVar env("PPFR_LA_THREADS", "four");
    EXPECT_DEATH((void)ActiveBackend(), "PPFR_LA_THREADS.*'four'");
  }
  ::testing::GTEST_FLAG(death_test_style) = style;
}

// PPFR_LA_BACKEND and --la_backend share one parser: a removed backend name
// ("simd") and an unknown one abort on both paths, naming the valid choices.
TEST(BackendEnvDeathTest, UnknownBackendNameAborts) {
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  for (const char* name : {"simd", "fast"}) {
    SCOPED_TRACE(name);
    const std::string want = std::string("must be 'reference' or 'parallel', got '") +
                             name + "'";
    {
      ScopedEnvVar env("PPFR_LA_BACKEND", name);
      EXPECT_DEATH((void)ActiveBackend(), "PPFR_LA_BACKEND " + want);
    }
    std::string prog = "la_backend_test";
    std::string flag = std::string("--la_backend=") + name;
    char* argv[] = {prog.data(), flag.data()};
    const Flags flags(2, argv);
    EXPECT_DEATH(ConfigureBackendFromFlags(flags), "--la_backend " + want);
  }
  ::testing::GTEST_FLAG(death_test_style) = style;
}

// An empty PPFR_LA_BACKEND means the default backend, like an unset one.
TEST(BackendEnvDeathTest, EmptyBackendNameSelectsParallel) {
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ScopedEnvVar env("PPFR_LA_BACKEND", "");
  EXPECT_EXIT(
      {
        std::fprintf(stderr, "active=%s\n", ActiveBackend().name().c_str());
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "active=parallel");
  ::testing::GTEST_FLAG(death_test_style) = style;
}

TEST(BackendRegistryTest, KindNamesAndScopedSwap) {
  EXPECT_EQ(BackendKindName(BackendKind::kReference), "reference");
  EXPECT_EQ(BackendKindName(BackendKind::kParallel), "parallel");
  const BackendKind before = ActiveBackendKind();
  {
    ScopedBackend scoped(BackendKind::kReference, 1);
    EXPECT_EQ(ActiveBackendKind(), BackendKind::kReference);
    EXPECT_EQ(ActiveBackend().name(), "reference");
  }
  EXPECT_EQ(ActiveBackendKind(), before);
}

TEST(BackendRegistryTest, MakeBackendStandaloneInstances) {
  const auto ref = MakeBackend(BackendKind::kReference, 1);
  const auto par = MakeBackend(BackendKind::kParallel, 2);
  EXPECT_EQ(ref->name(), "reference");
  EXPECT_EQ(par->name(), "parallel");
  EXPECT_EQ(par->num_threads(), 2);
  EXPECT_FALSE(ref->simd_active());
  EXPECT_FALSE(par->simd_active());
}

// Exhaustive shape sweep over all GEMM variants, including empty dimensions.
// Sizes cross the register-tile (4x8), cache-block (64/256) and serial-cutoff
// boundaries of the parallel backend.
TEST(BackendParityTest, GemmShapeSweep) {
  const std::vector<int> sizes = {0, 1, 2, 3, 5, 8, 17, 33, 65};
  Rng rng(7);
  for (int m : sizes) {
    for (int k : sizes) {
      for (int n : sizes) {
        const Matrix a = RandomMatrix(m, k, &rng);
        const Matrix b = RandomMatrix(k, n, &rng);
        ExpectBackendParity([&] { return MatMul(a, b); });
        const Matrix at = RandomMatrix(k, m, &rng);
        ExpectBackendParity([&] { return MatMulTransA(at, b); });
        const Matrix bt = RandomMatrix(n, k, &rng);
        ExpectBackendParity([&] { return MatMulTransB(a, bt); });
      }
    }
  }
}

TEST(BackendParityTest, SkinnyMGemmPartitionsColumnPanels) {
  Rng rng(12);
  // m=16 -> a single 64-row block, so the parallel backend partitions the B
  // column panels across threads instead (weight-gradient-shaped GEMM).
  const Matrix a = RandomMatrix(16, 300, &rng);
  const Matrix b = RandomMatrix(300, 2000, &rng);
  ExpectBackendParity([&] { return MatMul(a, b); });
  const Matrix at = RandomMatrix(300, 16, &rng);
  ExpectBackendParity([&] { return MatMulTransA(at, b); });
}

TEST(BackendParityTest, LargeGemmCrossesAllBlockBoundaries) {
  Rng rng(8);
  // 193 rows -> 4 row-blocks of 64 with a ragged tail; 300 k -> 2 KC panels;
  // 263 cols -> ragged NR tail.
  const Matrix a = RandomMatrix(193, 300, &rng);
  const Matrix b = RandomMatrix(300, 263, &rng);
  ExpectBackendParity([&] { return MatMul(a, b); });
  const Matrix at = RandomMatrix(300, 193, &rng);
  ExpectBackendParity([&] { return MatMulTransA(at, b); });
  const Matrix bt = RandomMatrix(263, 300, &rng);
  ExpectBackendParity([&] { return MatMulTransB(a, bt); });
}

TEST(BackendParityTest, TransposeAndElementwise) {
  Rng rng(9);
  const Matrix a = RandomMatrix(211, 307, &rng);  // > elementwise cutoff
  const Matrix b = RandomMatrix(211, 307, &rng);
  ExpectBackendParity([&] { return Transpose(a); });
  ExpectBackendParity([&] { return Hadamard(a, b); });
  ExpectBackendParity([&] {
    Matrix c = a;
    c.Axpy(-1.75, b);
    c.Scale(0.5);
    return c;
  });

  const double want = [&] {
    ScopedBackend scoped(BackendKind::kReference, 1);
    return Dot(a, b);
  }();
  std::optional<double> single_thread;
  for (int threads : {1, 2, 3, 4}) {
    ScopedBackend scoped(BackendKind::kParallel, threads);
    const double got = Dot(a, b);
    EXPECT_NEAR(got, want, kTol * std::fabs(want));
    if (!single_thread.has_value()) {
      single_thread = got;
    } else {
      EXPECT_EQ(got, *single_thread) << "threads=" << threads;
    }
  }
}

TEST(BackendParityTest, SpmmRandomAndEmpty) {
  Rng rng(10);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 30000; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(1200)),
                        static_cast<int>(rng.UniformInt(900)), rng.Normal()});
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(1200, 900, triplets);
  const Matrix x = RandomMatrix(900, 24, &rng);
  ExpectBackendParity([&] { return sparse.Multiply(x); });
  ExpectBackendParity([&] {
    Matrix out(1200, 24, 1.0);
    sparse.MultiplyAccum(x, -0.5, &out);
    return out;
  });

  // Degenerate shapes: no rows, no columns in x, and an all-empty operator.
  const CsrMatrix no_rows = CsrMatrix::FromTriplets(0, 5, {});
  const Matrix x5 = RandomMatrix(5, 3, &rng);
  ExpectBackendParity([&] { return no_rows.Multiply(x5); });
  const Matrix x0 = RandomMatrix(900, 0, &rng);
  ExpectBackendParity([&] { return sparse.Multiply(x0); });
  const CsrMatrix empty = CsrMatrix::FromTriplets(4, 4, {});
  const Matrix x4 = RandomMatrix(4, 2, &rng);
  ExpectBackendParity([&] { return empty.Multiply(x4); });
}

TEST(BackendParityTest, SpmmPowerLawDegreeGraph) {
  // Heavily skewed degrees: a few hub rows own most of the nnz, so the
  // nnz-balanced partition places chunk boundaries inside the hub region
  // while a row-count partition would serialise on one chunk. Results must
  // match the reference for every thread count.
  Rng rng(13);
  const int n = 2000;
  std::vector<Triplet> triplets;
  for (int hub = 0; hub < 4; ++hub) {
    for (int j = 0; j < n; j += 1 + hub) {
      triplets.push_back({hub, j, rng.Normal()});
    }
  }
  for (int i = 4; i < n; ++i) {
    for (int d = 0; d < 2; ++d) {
      triplets.push_back({i, static_cast<int>(rng.UniformInt(n)), rng.Normal()});
    }
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(n, n, triplets);
  const Matrix x = RandomMatrix(n, 16, &rng);
  ExpectBackendParity([&] { return sparse.Multiply(x); });
  ExpectBackendParity([&] {
    Matrix out(n, 16, 0.25);
    sparse.MultiplyAccum(x, 2.0, &out);
    return out;
  });
}

TEST(CsrMatrixTest, MultiplyAccumRowsMatchesFullProductOnSubset) {
  Rng rng(14);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 400; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(60)),
                        static_cast<int>(rng.UniformInt(60)), rng.Normal()});
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(60, 60, triplets);
  // x is zero outside rows {3, 17, 40}; the masked row-subset accumulate
  // must reproduce the full product bit for bit on the requested rows.
  Matrix x(60, 5);
  const std::vector<int> nonzero_rows{3, 17, 40};
  std::vector<uint8_t> mask(60, 0);
  for (int r : nonzero_rows) {
    mask[static_cast<size_t>(r)] = 1;
    for (int c = 0; c < 5; ++c) x(r, c) = rng.Normal();
  }
  const Matrix full = sparse.Multiply(x);

  const std::vector<int> subset{0, 5, 17, 33, 59};
  Matrix masked(60, 5);
  sparse.MultiplyAccumRows(x, 1.0, &masked, subset, mask);
  Matrix unmasked(60, 5);
  sparse.MultiplyAccumRows(x, 1.0, &unmasked, subset);
  for (int r : subset) {
    for (int c = 0; c < 5; ++c) {
      EXPECT_EQ(masked(r, c), full(r, c)) << "masked (" << r << "," << c << ")";
      EXPECT_EQ(unmasked(r, c), full(r, c)) << "unmasked (" << r << "," << c << ")";
    }
  }
}

// The support-guided kernels (seeded-backward row supports) now dispatch
// through the backend: the parallel route must stay BITWISE on the serial
// loops (same per-element order) and bitwise deterministic across thread
// counts. Supports cover
// the large case (above the threading thresholds), the empty support, a
// single row, and 1-column shapes.
TEST(BackendParityTest, SupportKernelRoutesMatchSerialReference) {
  Rng rng(31);
  const int m = 160, k = 96, n = 80;
  const Matrix g = RandomMatrix(m, n, &rng);
  const Matrix bmat = RandomMatrix(k, n, &rng);
  const Matrix a = RandomMatrix(m, k, &rng);
  std::vector<int> big_support;
  for (int r = 0; r < m; r += 2) big_support.push_back(r);
  const auto ref = MakeBackend(BackendKind::kReference, 1);

  for (const std::vector<int>& rows :
       {big_support, std::vector<int>{}, std::vector<int>{7}}) {
    SCOPED_TRACE("support size " + std::to_string(rows.size()));
    Matrix want_tb(m, k, 0.5);
    ref->GemmTransBAccumRows(g, bmat, &want_tb, rows);
    Matrix want_ta(k, n, -0.25);
    ref->GemmTransAAccumRows(a, g, &want_ta, rows);

    Matrix tb1, ta1;
    for (int threads : {1, 2, 3, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const auto backend = MakeBackend(BackendKind::kParallel, threads);
      Matrix got_tb(m, k, 0.5);
      backend->GemmTransBAccumRows(g, bmat, &got_tb, rows);
      Matrix got_ta(k, n, -0.25);
      backend->GemmTransAAccumRows(a, g, &got_ta, rows);
      ExpectBitwiseEqual(want_tb, got_tb);
      ExpectBitwiseEqual(want_ta, got_ta);
      if (threads == 1) {
        tb1 = got_tb;
        ta1 = got_ta;
      } else {
        ExpectBitwiseEqual(tb1, got_tb);
        ExpectBitwiseEqual(ta1, got_ta);
      }
    }
  }

  // 1-column edge shapes: dot over a single element, axpy of length 1.
  const Matrix g1 = RandomMatrix(m, 1, &rng);
  const Matrix b1 = RandomMatrix(1, 1, &rng);
  Matrix want1(m, 1);
  ref->GemmTransBAccumRows(g1, b1, &want1, big_support);
  Matrix got1(m, 1);
  MakeBackend(BackendKind::kParallel, 3)
      ->GemmTransBAccumRows(g1, b1, &got1, big_support);
  EXPECT_LT(Sub(got1, want1).MaxAbs(), kTol);
}

TEST(BackendParityTest, SpmmAccumRowsRouteMatchesSerialReference) {
  Rng rng(33);
  const int nnodes = 400, ncols = 16;
  std::vector<Triplet> triplets;
  for (int i = 0; i < 12000; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(nnodes)),
                        static_cast<int>(rng.UniformInt(nnodes)), rng.Normal()});
  }
  const CsrMatrix sparse = CsrMatrix::FromTriplets(nnodes, nnodes, triplets);
  const Matrix x = RandomMatrix(nnodes, ncols, &rng);
  std::vector<int> support;
  for (int r = 0; r < nnodes; r += 2) support.push_back(r);
  std::vector<uint8_t> mask(nnodes, 0);
  for (int r = 0; r < nnodes; r += 3) mask[static_cast<size_t>(r)] = 1;
  const auto ref = MakeBackend(BackendKind::kReference, 1);

  for (const std::vector<uint8_t>& m : {std::vector<uint8_t>{}, mask}) {
    SCOPED_TRACE(m.empty() ? "unmasked" : "masked");
    for (const std::vector<int>& rows : {support, std::vector<int>{}}) {
      SCOPED_TRACE("support size " + std::to_string(rows.size()));
      Matrix want(nnodes, ncols, 1.0);
      ref->SpmmAccumRows(sparse, x, -0.5, &want, rows, m);
      Matrix first;
      for (int threads : {1, 2, 3, 4}) {
        Matrix got(nnodes, ncols, 1.0);
        MakeBackend(BackendKind::kParallel, threads)
            ->SpmmAccumRows(sparse, x, -0.5, &got, rows, m);
        ExpectBitwiseEqual(want, got);
        if (threads == 1) {
          first = got;
        } else {
          ExpectBitwiseEqual(first, got);
        }
      }
    }
  }
}

// A dense matrix with about `density` of its entries ~ N(0, 1) (general
// values, not just the 0/1 of bag-of-words features), one all-zero row and
// one all-zero column.
Matrix SparseDense(int rows, int cols, double density, Rng* rng) {
  Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (r != rows / 2 && c != cols / 3 && rng->Bernoulli(density)) {
        m(r, c) = rng->Normal();
      }
    }
  }
  return m;
}

Matrix LeadingRows(const Matrix& m, int rows) {
  Matrix out(rows, m.cols());
  for (int r = 0; r < rows; ++r) std::copy(m.row(r), m.row(r) + m.cols(), out.row(r));
  return out;
}

// The CSR-left products of the sparse feature projection reproduce the dense
// GEMM family bit for bit, on both backends and any thread count: shapes
// below take the naive path, the blocked path with one k-panel and the
// blocked path with several (k or m above 256), narrow and in the GAT
// [lane][head][d] layout (lanes·heads windows of width d).
TEST(CsrLeftProductTest, BitwiseEqualToDenseGemmFamily) {
  struct Shape {
    int m, k, n, lanes;
  };
  const std::vector<Shape> shapes = {{5, 7, 3, 1},     {40, 24, 16, 1},
                                     {300, 128, 16, 1}, {300, 128, 32, 4},
                                     {600, 300, 16, 1}, {700, 96, 48, 6},
                                     {300, 64, 12, 3}};
  const std::vector<std::pair<BackendKind, int>> backends = {
      {BackendKind::kReference, 1}, {BackendKind::kParallel, 1},
      {BackendKind::kParallel, 3}};
  Rng rng(31);
  for (const Shape& sh : shapes) {
    const Matrix dense = SparseDense(sh.m, sh.k, 0.07, &rng);
    const CsrMatrix csr = CsrMatrix::FromDense(dense);
    const Matrix b = RandomMatrix(sh.k, sh.n, &rng);
    const Matrix g = RandomMatrix(sh.m, sh.n, &rng);
    const std::vector<int> support = {0, 3, sh.m / 2, sh.m - 1};
    const Matrix start = RandomMatrix(sh.k, sh.n, &rng);
    for (const auto& [kind, threads] : backends) {
      SCOPED_TRACE("m=" + std::to_string(sh.m) + " k=" + std::to_string(sh.k) +
                   " n=" + std::to_string(sh.n) + " lanes=" + std::to_string(sh.lanes) +
                   " " + BackendKindName(kind) + "x" + std::to_string(threads));
      ScopedBackend scoped(kind, threads);
      for (const int rows : {sh.m, sh.m / 2}) {
        Matrix got(rows, sh.n);
        CsrGemmLanes(csr, b, &got, sh.lanes);
        ExpectBitwiseEqual(MatMulLanes(LeadingRows(dense, rows), b, sh.lanes), got);
      }
      const Matrix dw = CsrMatMulLanesTransA(csr, g, sh.lanes);
      ExpectBitwiseEqual(MatMulLanesTransA(dense, g, sh.lanes, /*a_shared=*/true), dw);
      if (sh.lanes == 1) ExpectBitwiseEqual(MatMulTransA(dense, g), dw);
      Matrix want = start;
      GemmLanesTransAAccumRows(dense, g, &want, support, sh.lanes);
      Matrix got = start;
      CsrGemmTransAAccumRows(csr, g, &got, support);
      ExpectBitwiseEqual(want, got);
      if (sh.lanes == 1) {
        Matrix narrow = start;
        GemmTransAAccumRows(dense, g, &narrow, support);
        ExpectBitwiseEqual(narrow, got);
      }
    }
  }
}

TEST(CsrLeftProductTest, SparseTimesSparseEqualsSpmmOverDense) {
  Rng rng(32);
  std::vector<Triplet> triplets;
  for (int i = 0; i < 2500; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(350)),
                        static_cast<int>(rng.UniformInt(500)), rng.Uniform()});
  }
  const CsrMatrix agg = CsrMatrix::FromTriplets(350, 500, triplets);
  const Matrix dense = SparseDense(500, 96, 0.06, &rng);
  const CsrMatrix x = CsrMatrix::FromDense(dense);
  for (const auto& [kind, threads] :
       std::vector<std::pair<BackendKind, int>>{{BackendKind::kReference, 1},
                                                {BackendKind::kParallel, 3}}) {
    ScopedBackend scoped(kind, threads);
    Matrix want(350, 96);
    agg.MultiplyAccum(dense, 1.0, &want);
    Matrix got(350, 96);
    agg.MultiplySparseAccum(x, &got);
    ExpectBitwiseEqual(want, got);
  }
}

TEST(BackendApplyTest, CoversRangeOnceUnderBothBackends) {
  for (const BackendKind kind : {BackendKind::kReference, BackendKind::kParallel}) {
    const auto backend = MakeBackend(kind, 3);
    std::vector<std::atomic<int>> hits(50000);
    backend->Apply(50000, 1024, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(BackendParityTest, VectorOpsMatchAcrossThreadCounts) {
  Rng rng(11);
  const int64_t n = 100001;  // > reduce-block and elementwise cutoffs, ragged
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();

  const auto ref = MakeBackend(BackendKind::kReference, 1);
  const double want_dot = ref->VDot(a.data(), b.data(), n);
  std::vector<double> want_axpy = b;
  ref->VAxpy(0.25, a.data(), want_axpy.data(), n);

  std::optional<double> dot1;
  std::vector<double> axpy1;
  for (int threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto backend = MakeBackend(BackendKind::kParallel, threads);
    const double got_dot = backend->VDot(a.data(), b.data(), n);
    EXPECT_NEAR(got_dot, want_dot, kTol * std::fabs(want_dot));
    std::vector<double> got_axpy = b;
    backend->VAxpy(0.25, a.data(), got_axpy.data(), n);
    double max_diff = 0.0;
    for (int64_t i = 0; i < n; ++i) {
      max_diff = std::max(max_diff, std::fabs(got_axpy[i] - want_axpy[i]));
    }
    EXPECT_LT(max_diff, kTol);
    // Bitwise determinism across thread counts.
    if (!dot1.has_value()) {
      dot1 = got_dot;
      axpy1 = got_axpy;
    } else {
      EXPECT_EQ(got_dot, *dot1);
      ASSERT_EQ(got_axpy.size(), axpy1.size());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(got_axpy[i], axpy1[i]) << "index " << i;
      }
    }
  }
}

// Fused CG kernels (VAxpyDot / VDotAxpy). Contracts from backend.h:
//   * VAxpyDot updates y exactly like VAxpy and returns the bits a follow-up
//     VDot(y, y) would produce — on every backend, for every thread count.
//   * VDotAxpy computes y = x + beta*y elementwise; a follow-up VDot(y, y)
//     reproduces the returned bits; and the result is thread-count invariant.
// Sizes straddle the parallel elementwise cutoff and the reduce block.
TEST(BackendParityTest, FusedCgKernelsHonourTheirContracts) {
  Rng rng(23);
  for (const int64_t n : {int64_t{7}, int64_t{1013}, int64_t{40003}, int64_t{100001}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> x(n), y0(n);
    for (auto& v : x) v = rng.Normal();
    for (auto& v : y0) v = rng.Normal();

    for (BackendKind kind : {BackendKind::kReference, BackendKind::kParallel}) {
      std::optional<double> axpy_dot1;
      std::vector<double> axpy_y1;
      std::optional<double> xpay_dot1;
      std::vector<double> xpay_y1;
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const auto backend = MakeBackend(kind, threads);

        // VAxpyDot == VAxpy then VDot(y, y), bitwise.
        std::vector<double> y_fused = y0;
        const double fused = backend->VAxpyDot(0.37, x.data(), y_fused.data(), n);
        std::vector<double> y_unfused = y0;
        backend->VAxpy(0.37, x.data(), y_unfused.data(), n);
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(y_fused[i], y_unfused[i]) << "VAxpyDot update differs at " << i;
        }
        EXPECT_EQ(fused, backend->VDot(y_fused.data(), y_fused.data(), n));

        // VDotAxpy: y = x + beta*y; follow-up VDot reproduces the bits.
        std::vector<double> y_dir = y0;
        const double dir_norm = backend->VDotAxpy(-0.58, x.data(), y_dir.data(), n);
        EXPECT_EQ(dir_norm, backend->VDot(y_dir.data(), y_dir.data(), n));
        for (int64_t i = 0; i < n; ++i) {
          const double want = x[i] + (-0.58) * y0[i];
          ASSERT_NEAR(y_dir[i], want, 1e-12 * std::max(1.0, std::fabs(want)))
              << "VDotAxpy update wrong at " << i;
        }

        // Thread-count invariance of both fused kernels, bitwise.
        if (!axpy_dot1.has_value()) {
          axpy_dot1 = fused;
          axpy_y1 = y_fused;
          xpay_dot1 = dir_norm;
          xpay_y1 = y_dir;
        } else {
          EXPECT_EQ(fused, *axpy_dot1);
          EXPECT_EQ(dir_norm, *xpay_dot1);
          for (int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(y_fused[i], axpy_y1[i]) << "VAxpyDot thread variance at " << i;
            ASSERT_EQ(y_dir[i], xpay_y1[i]) << "VDotAxpy thread variance at " << i;
          }
        }
      }
    }
  }
}

// The autograd layer must stay numerically correct under either backend:
// grad-check ag::MatMul and ag::SpMM with each one active.
class AutogradUnderBackend : public ::testing::TestWithParam<BackendKind> {};

TEST_P(AutogradUnderBackend, MatMulGradCheck) {
  ScopedBackend scoped(GetParam(), 3);
  Rng rng(21);
  ag::Parameter a("a", RandomMatrix(6, 9, &rng));
  ag::Parameter b("b", RandomMatrix(9, 4, &rng));
  auto build = [&](ag::Tape& t) {
    return ag::MeanAll(ag::Square(ag::MatMul(t.Leaf(&a), t.Leaf(&b))));
  };
  const ag::GradCheckResult r = ag::GradCheck(build, {&a, &b}, &rng);
  EXPECT_LT(r.max_rel_error, 1e-5);
}

TEST_P(AutogradUnderBackend, SpMMGradCheck) {
  ScopedBackend scoped(GetParam(), 3);
  Rng rng(22);
  ag::Parameter x("x", RandomMatrix(8, 5, &rng));
  std::vector<Triplet> triplets;
  for (int i = 0; i < 24; ++i) {
    triplets.push_back({static_cast<int>(rng.UniformInt(8)),
                        static_cast<int>(rng.UniformInt(8)), rng.Normal()});
  }
  auto sp = ag::MakeSparseOperand(CsrMatrix::FromTriplets(8, 8, triplets),
                                  /*symmetric=*/false);
  auto build = [&](ag::Tape& t) {
    return ag::MeanAll(ag::Square(ag::SpMM(sp, t.Leaf(&x))));
  };
  const ag::GradCheckResult r = ag::GradCheck(build, {&x}, &rng);
  EXPECT_LT(r.max_rel_error, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Backends, AutogradUnderBackend,
                         ::testing::Values(BackendKind::kReference,
                                           BackendKind::kParallel),
                         [](const ::testing::TestParamInfo<BackendKind>& info) {
                           return BackendKindName(info.param);
                         });

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeAndLargeGrain) {
  ThreadPool pool(3);
  int calls = 0;
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Grain larger than the range -> single inline chunk on the caller.
  pool.ParallelFor(0, 10, 100, [&](int64_t lo, int64_t hi) {
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyInvocations) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 257, 8, [&](int64_t lo, int64_t hi) {
      int64_t local = 0;
      for (int64_t i = lo; i < hi; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(MatrixCheckTest, FromRowsRejectsRaggedInput) {
  EXPECT_DEATH(Matrix::FromRows({{1.0, 2.0}, {3.0}}), "ragged");
}

#ifndef NDEBUG
TEST(MatrixCheckTest, DebugBoundsCheckOnAccess) {
  Matrix m(2, 3);
  EXPECT_DEATH((void)m(2, 0), "out of range");
  EXPECT_DEATH((void)m(0, 3), "out of range");
  EXPECT_DEATH((void)m(-1, 0), "out of range");
  EXPECT_DEATH((void)m.row(5), "out of range");
}
#endif

}  // namespace
}  // namespace ppfr::la
