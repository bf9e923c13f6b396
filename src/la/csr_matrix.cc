#include "la/csr_matrix.h"

#include <algorithm>

#include "la/backend.h"

namespace ppfr::la {
namespace {

// Grain for the backend-routed row/column loops below: about this many
// multiply-adds per chunk before threading pays.
constexpr int64_t kWorkGrain = 32 * 1024;

int64_t Grain(int64_t work_per_index) {
  return std::max<int64_t>(1, kWorkGrain / std::max<int64_t>(work_per_index, 1));
}

}  // namespace

std::vector<int64_t> NnzBalancedRowBounds(const std::vector<int64_t>& row_ptr,
                                          int64_t num_rows, int64_t num_chunks) {
  PPFR_CHECK_GE(num_chunks, 1);
  PPFR_CHECK_GE(static_cast<int64_t>(row_ptr.size()), num_rows + 1);
  const int64_t nnz = row_ptr[static_cast<size_t>(num_rows)];
  std::vector<int64_t> bounds(static_cast<size_t>(num_chunks) + 1, 0);
  bounds[static_cast<size_t>(num_chunks)] = num_rows;
  for (int64_t c = 1; c < num_chunks; ++c) {
    const int64_t target = c * nnz / num_chunks;
    const auto it = std::lower_bound(row_ptr.begin(),
                                     row_ptr.begin() + num_rows + 1, target);
    const int64_t row = std::min<int64_t>(it - row_ptr.begin(), num_rows);
    bounds[static_cast<size_t>(c)] = std::max(bounds[static_cast<size_t>(c - 1)], row);
  }
  return bounds;
}

CsrMatrix CsrMatrix::FromTriplets(int rows, int cols, std::vector<Triplet> triplets) {
  CsrMatrix m(rows, cols);
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    const Triplet& t = triplets[i];
    PPFR_CHECK_GE(t.row, 0);
    PPFR_CHECK_LT(t.row, rows);
    PPFR_CHECK_GE(t.col, 0);
    PPFR_CHECK_LT(t.col, cols);
    double v = 0.0;
    size_t j = i;
    while (j < triplets.size() && triplets[j].row == t.row && triplets[j].col == t.col) {
      v += triplets[j].value;
      ++j;
    }
    m.col_idx_.push_back(t.col);
    m.values_.push_back(v);
    m.row_ptr_[t.row + 1]++;
    i = j;
  }
  // Deduplicated per-row counts -> prefix sums, in place.
  for (int r = 0; r < rows; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  m.RegisterArenaBytes();
  return m;
}

CsrMatrix CsrMatrix::FromCsr(int rows, int cols, std::vector<int64_t> row_ptr,
                             std::vector<int> col_idx, std::vector<double> values) {
  PPFR_CHECK_GE(rows, 0);
  PPFR_CHECK_GE(cols, 0);
  PPFR_CHECK_EQ(row_ptr.size(), static_cast<size_t>(rows) + 1);
  PPFR_CHECK_EQ(row_ptr.front(), 0);
  PPFR_CHECK_EQ(row_ptr.back(), static_cast<int64_t>(col_idx.size()));
  PPFR_CHECK_EQ(col_idx.size(), values.size());
  for (int r = 0; r < rows; ++r) {
    PPFR_CHECK_LE(row_ptr[r], row_ptr[r + 1]);
    for (int64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      PPFR_CHECK_GE(col_idx[k], 0);
      PPFR_CHECK_LT(col_idx[k], cols);
      if (k > row_ptr[r]) {
        PPFR_CHECK_LT(col_idx[k - 1], col_idx[k]);
      }
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.RegisterArenaBytes();
  return m;
}

CsrMatrix CsrMatrix::FromDenseRows(const Matrix& dense, const std::vector<int>& rows) {
  CsrMatrix m(static_cast<int>(rows.size()), dense.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    PPFR_CHECK_GE(rows[i], 0);
    PPFR_CHECK_LT(rows[i], dense.rows());
    const double* src = dense.row(rows[i]);
    for (int c = 0; c < dense.cols(); ++c) {
      if (src[c] == 0.0) continue;
      m.col_idx_.push_back(c);
      m.values_.push_back(src[c]);
    }
    m.row_ptr_[i + 1] = static_cast<int64_t>(m.col_idx_.size());
  }
  m.RegisterArenaBytes();
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense) {
  std::vector<int> rows(static_cast<size_t>(dense.rows()));
  for (int r = 0; r < dense.rows(); ++r) rows[static_cast<size_t>(r)] = r;
  return FromDenseRows(dense, rows);
}

Matrix CsrMatrix::Multiply(const Matrix& x) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  Matrix out(rows_, x.cols());
  MultiplyAccum(x, 1.0, &out);
  return out;
}

void CsrMatrix::MultiplyAccum(const Matrix& x, double alpha, Matrix* out) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  PPFR_CHECK_EQ(out->rows(), rows_);
  PPFR_CHECK_EQ(out->cols(), x.cols());
  ActiveBackend().SpmmAccum(*this, x, alpha, out);
}

void CsrMatrix::MultiplyAccumRows(const Matrix& x, double alpha, Matrix* out,
                                  const std::vector<int>& rows,
                                  const std::vector<uint8_t>& x_row_nonzero) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  PPFR_CHECK_EQ(out->rows(), rows_);
  PPFR_CHECK_EQ(out->cols(), x.cols());
  if (!x_row_nonzero.empty()) {
    PPFR_CHECK_GE(static_cast<int>(x_row_nonzero.size()), x.rows());
  }
  ActiveBackend().SpmmAccumRows(*this, x, alpha, out, rows, x_row_nonzero);
}

CsrMatrix CsrMatrix::Transposed() const {
  CsrMatrix t(cols_, rows_);
  for (int c : col_idx_) ++t.row_ptr_[c + 1];
  for (int c = 0; c < cols_; ++c) t.row_ptr_[c + 1] += t.row_ptr_[c];
  t.col_idx_.resize(col_idx_.size());
  t.values_.resize(values_.size());
  std::vector<int64_t> next(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const int64_t dst = next[col_idx_[k]]++;
      t.col_idx_[dst] = r;
      t.values_[dst] = values_[k];
    }
  }
  t.RegisterArenaBytes();
  return t;
}

void CsrMatrix::MultiplySparseAccum(const CsrMatrix& x, Matrix* out) const {
  PPFR_CHECK_EQ(cols_, x.rows());
  PPFR_CHECK_EQ(out->rows(), rows_);
  PPFR_CHECK_EQ(out->cols(), x.cols());
  const int64_t x_row_nnz = x.nnz() / std::max(x.rows(), 1) + 1;
  const int64_t work_per_row = rows_ > 0 ? nnz() * x_row_nnz / rows_ : 0;
  ActiveBackend().Apply(rows_, Grain(work_per_row), [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      double* out_row = out->row(static_cast<int>(r));
      for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const double w = values_[k];
        const int s = col_idx_[k];
        for (int64_t q = x.row_ptr_[s]; q < x.row_ptr_[s + 1]; ++q) {
          out_row[x.col_idx_[q]] += w * x.values_[q];
        }
      }
    }
  });
}

double CsrMatrix::At(int row, int col) const {
  PPFR_CHECK_GE(row, 0);
  PPFR_CHECK_LT(row, rows_);
  const auto begin = col_idx_.begin() + row_ptr_[row];
  const auto end = col_idx_.begin() + row_ptr_[row + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[it - col_idx_.begin()];
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) += values_[k];
    }
  }
  return out;
}

void CsrGemmLanes(const CsrMatrix& a, const Matrix& b, Matrix* out, int lanes) {
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(b.cols() % lanes, 0);
  PPFR_CHECK_EQ(a.cols(), b.rows());
  PPFR_CHECK_EQ(out->cols(), b.cols());
  PPFR_CHECK_LE(out->rows(), a.rows());
  const int m = out->rows();
  const int n = b.cols();
  const int k = a.cols();
  const int panel = ActiveBackend().GemmKPanel(m, n / lanes, k);
  const bool split = panel > 0 && panel < k;
  const std::vector<int64_t>& row_ptr = a.row_ptr();
  const std::vector<int>& col_idx = a.col_idx();
  const std::vector<double>& values = a.values();
  const int64_t work_per_row = m > 0 ? row_ptr[m] * n / m : 0;
  ActiveBackend().Apply(m, Grain(work_per_row), [&](int64_t lo, int64_t hi) {
    std::vector<double> acc(split ? static_cast<size_t>(n) : 0);
    for (int64_t r = lo; r < hi; ++r) {
      double* out_row = out->row(static_cast<int>(r));
      std::fill(out_row, out_row + n, 0.0);
      // One k-panel of the row's terms at a time, in ascending column order:
      // the first panel sums straight into the zeroed row, each later one
      // into `acc` and then into the row, like the blocked GEMM's registers.
      bool first = true;
      for (int64_t q = row_ptr[r]; q < row_ptr[r + 1]; first = false) {
        const int64_t panel_end =
            split ? (col_idx[q] / panel + 1) * static_cast<int64_t>(panel) : k;
        double* dst = first ? out_row : acc.data();
        if (!first) std::fill(acc.begin(), acc.end(), 0.0);
        for (; q < row_ptr[r + 1] && col_idx[q] < panel_end; ++q) {
          const double v = values[q];
          const double* b_row = b.row(col_idx[q]);
          for (int j = 0; j < n; ++j) dst[j] += v * b_row[j];
        }
        if (!first) {
          for (int j = 0; j < n; ++j) out_row[j] += acc[static_cast<size_t>(j)];
        }
      }
    }
  });
}

Matrix CsrMatMulLanesTransA(const CsrMatrix& a, const Matrix& g, int lanes) {
  PPFR_CHECK_GE(lanes, 1);
  PPFR_CHECK_EQ(g.cols() % lanes, 0);
  PPFR_CHECK_LE(g.rows(), a.rows());
  const int m = g.rows();
  const int n = g.cols();
  const int k = a.cols();
  Matrix out(k, n);
  const int panel = ActiveBackend().GemmKPanel(k, n / lanes, m);
  const int panel_rows = panel > 0 ? panel : std::max(m, 1);
  const std::vector<int64_t>& row_ptr = a.row_ptr();
  const std::vector<int>& col_idx = a.col_idx();
  const std::vector<double>& values = a.values();
  // Disjoint output-column windows per chunk; every chunk walks the rows in
  // order, so the result is independent of the split.
  ActiveBackend().Apply(n, std::max<int64_t>(8, Grain(m > 0 ? row_ptr[m] : 0)),
                        [&](int64_t j0, int64_t j1) {
    // Each panel of rows scatters into a zeroed `acc`, which is then added
    // to the output, like the blocked GEMM's registers (0 + acc is acc, so
    // one running sum is the single-panel case).
    const int width = static_cast<int>(j1 - j0);
    std::vector<double> acc(static_cast<size_t>(k) * width);
    for (int p0 = 0; p0 < m; p0 += panel_rows) {
      std::fill(acc.begin(), acc.end(), 0.0);
      for (int r = p0; r < std::min(m, p0 + panel_rows); ++r) {
        const double* g_row = g.row(r) + j0;
        for (int64_t q = row_ptr[r]; q < row_ptr[r + 1]; ++q) {
          const double v = values[q];
          double* dst = acc.data() + static_cast<size_t>(col_idx[q]) * width;
          for (int j = 0; j < width; ++j) dst[j] += v * g_row[j];
        }
      }
      for (int i = 0; i < k; ++i) {
        double* out_row = out.row(i) + j0;
        const double* acc_row = acc.data() + static_cast<size_t>(i) * width;
        for (int j = 0; j < width; ++j) out_row[j] += acc_row[j];
      }
    }
  });
  return out;
}

void CsrGemmTransAAccumRows(const CsrMatrix& a, const Matrix& g, Matrix* out,
                            const std::vector<int>& rows) {
  PPFR_CHECK_LE(g.rows(), a.rows());
  PPFR_CHECK_EQ(out->rows(), a.cols());
  PPFR_CHECK_EQ(out->cols(), g.cols());
  const int n = g.cols();
  const std::vector<int64_t>& row_ptr = a.row_ptr();
  const std::vector<int>& col_idx = a.col_idx();
  const std::vector<double>& values = a.values();
  for (int r : rows) {
    PPFR_DCHECK_GE(r, 0);
    PPFR_DCHECK_LT(r, g.rows());
    const double* g_row = g.row(r);
    for (int64_t q = row_ptr[r]; q < row_ptr[r + 1]; ++q) {
      const double v = values[q];
      double* dst = out->row(col_idx[q]);
      for (int j = 0; j < n; ++j) dst[j] += v * g_row[j];
    }
  }
}

}  // namespace ppfr::la
