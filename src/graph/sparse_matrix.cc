#include "graph/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace icrowd {

SparseMatrix::SparseMatrix(size_t n, std::vector<Triplet> triplets) : n_(n) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (std::get<0>(a) != std::get<0>(b)) {
                return std::get<0>(a) < std::get<0>(b);
              }
              return std::get<1>(a) < std::get<1>(b);
            });
  row_ptr_.assign(n + 1, 0);
  cols_.reserve(triplets.size());
  values_.reserve(triplets.size());
  int32_t prev_row = -1;
  int32_t prev_col = -1;
  for (const Triplet& t : triplets) {
    auto [row, col, value] = t;
    assert(row >= 0 && static_cast<size_t>(row) < n);
    assert(col >= 0 && static_cast<size_t>(col) < n);
    if (row == prev_row && col == prev_col) {
      values_.back() += value;  // merge duplicate (row, col)
      continue;
    }
    cols_.push_back(col);
    values_.push_back(value);
    ++row_ptr_[row + 1];
    prev_row = row;
    prev_col = col;
  }
  for (size_t i = 1; i <= n; ++i) row_ptr_[i] += row_ptr_[i - 1];
}

SparseMatrix SparseMatrix::FromCsr(size_t n, std::vector<size_t> row_ptr,
                                   std::vector<int32_t> cols,
                                   std::vector<double> values) {
  SparseMatrix m;
  m.n_ = n;
  m.row_ptr_ = std::move(row_ptr);
  m.cols_ = std::move(cols);
  m.values_ = std::move(values);
  return m;
}

std::vector<double> SparseMatrix::Multiply(const std::vector<double>& x) const {
  std::vector<double> y;
  MultiplyInto(x, &y);
  return y;
}

void SparseMatrix::MultiplyInto(const std::vector<double>& x,
                                std::vector<double>* y) const {
  assert(x.size() == n_);
  y->assign(n_, 0.0);
  for (size_t i = 0; i < n_; ++i) {
    double acc = 0.0;
    for (size_t idx = row_ptr_[i]; idx < row_ptr_[i + 1]; ++idx) {
      acc += values_[idx] * x[cols_[idx]];
    }
    (*y)[i] = acc;
  }
}

double SparseMatrix::RowSum(size_t i) const {
  double acc = 0.0;
  for (size_t idx = row_ptr_[i]; idx < row_ptr_[i + 1]; ++idx) {
    acc += values_[idx];
  }
  return acc;
}

double SparseMatrix::At(size_t i, size_t j) const {
  auto begin = cols_.begin() + row_ptr_[i];
  auto end = cols_.begin() + row_ptr_[i + 1];
  auto it = std::lower_bound(begin, end, static_cast<int32_t>(j));
  if (it == end || *it != static_cast<int32_t>(j)) return 0.0;
  return values_[it - cols_.begin()];
}

SparseMatrix SparseMatrix::SymmetricNormalized() const {
  std::vector<double> inv_sqrt(n_, 0.0);
  for (size_t i = 0; i < n_; ++i) {
    double d = RowSum(i);
    inv_sqrt[i] = d > 0.0 ? 1.0 / std::sqrt(d) : 0.0;
  }
  std::vector<Triplet> triplets;
  triplets.reserve(nnz());
  for (size_t i = 0; i < n_; ++i) {
    for (size_t idx = row_ptr_[i]; idx < row_ptr_[i + 1]; ++idx) {
      int32_t j = cols_[idx];
      triplets.emplace_back(static_cast<int32_t>(i), j,
                            values_[idx] * inv_sqrt[i] * inv_sqrt[j]);
    }
  }
  return SparseMatrix(n_, std::move(triplets));
}

}  // namespace icrowd
