#ifndef ICROWD_GRAPH_SPARSE_MATRIX_H_
#define ICROWD_GRAPH_SPARSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

namespace icrowd {

/// Compressed-sparse-row square matrix. Holds the (normalized) similarity
/// matrix S' = D^{-1/2} S D^{-1/2} of §3.1 and supports the matrix-vector
/// products that drive the Eq. (4) iteration.
class SparseMatrix {
 public:
  /// One nonzero entry (row, col, value).
  using Triplet = std::tuple<int32_t, int32_t, double>;

  SparseMatrix() = default;

  /// Builds an n x n matrix from (possibly unsorted) triplets. Duplicate
  /// (row, col) entries are summed.
  SparseMatrix(size_t n, std::vector<Triplet> triplets);

  /// Adopts CSR arrays as they are; the caller has checked that row_ptr
  /// runs from 0 to cols.size() without decreasing, every column is below
  /// n, and values matches cols in length.
  static SparseMatrix FromCsr(size_t n, std::vector<size_t> row_ptr,
                              std::vector<int32_t> cols,
                              std::vector<double> values);

  size_t n() const { return n_; }
  size_t nnz() const { return cols_.size(); }

  /// y = A * x. Requires x.size() == n.
  std::vector<double> Multiply(const std::vector<double>& x) const;

  /// In-place y = A * x, reusing y's storage.
  void MultiplyInto(const std::vector<double>& x,
                    std::vector<double>* y) const;

  /// Sum of row `i`'s values (the degree D_ii for a similarity matrix).
  double RowSum(size_t i) const;

  /// Value at (i, j); 0 when absent. O(log row-degree).
  double At(size_t i, size_t j) const;

  /// Returns D^{-1/2} A D^{-1/2} where D_ii = RowSum(i). Rows with zero sum
  /// are left empty (isolated vertices).
  SparseMatrix SymmetricNormalized() const;

  /// Iteration access: columns/values of row i are
  /// cols()[row_ptr()[i] .. row_ptr()[i+1]).
  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& cols() const { return cols_; }
  const std::vector<double>& values() const { return values_; }

 private:
  size_t n_ = 0;
  std::vector<size_t> row_ptr_{0};
  std::vector<int32_t> cols_;
  std::vector<double> values_;
};

}  // namespace icrowd

#endif  // ICROWD_GRAPH_SPARSE_MATRIX_H_
