// Compressed-sparse-row matrix with fixed (non-trainable) values.
//
// Used for the symmetric-normalized adjacency D̂^{-1/2}ÂD̂^{-1/2} of
// Eq. 5: the adjacency is a constant of each graph, so only dense
// operands carry gradients. spmm backward therefore needs Sᵀ·dY. A
// general matrix serves it from a cached transpose; a symmetric one is
// its own transpose, so it stores none and reads its own arrays.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace gnn4ip::tensor {

struct Triplet {
  std::size_t row = 0;
  std::size_t col = 0;
  float value = 0.0F;
};

class Csr {
 public:
  Csr() = default;

  /// Build from triplets (duplicates are summed).
  [[nodiscard]] static Csr from_triplets(std::size_t rows, std::size_t cols,
                                         std::vector<Triplet> triplets);

  /// Adopt finished CSR arrays: `row_offsets` has rows+1 entries from
  /// 0 to nnz, and each row's columns are strictly ascending. With
  /// `symmetric` the caller promises S(r,c) == S(c,r) bit for bit; no
  /// transpose is stored, and multiply_transposed reads S itself, whose
  /// row c lists the same columns in the same order as the transpose's.
  [[nodiscard]] static Csr from_sorted(std::size_t rows, std::size_t cols,
                                       std::vector<std::size_t> row_offsets,
                                       std::vector<std::size_t> col_indices,
                                       std::vector<float> values,
                                       bool symmetric);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }

  /// Y = S · X  (dense X with X.rows() == cols()).
  [[nodiscard]] Matrix multiply(const Matrix& x) const;

  /// Y = Sᵀ · X (dense X with X.rows() == rows()).
  [[nodiscard]] Matrix multiply_transposed(const Matrix& x) const;

  [[nodiscard]] bool symmetric() const { return symmetric_; }

  /// Materialize as dense (tests only; small graphs).
  [[nodiscard]] Matrix to_dense() const;

  /// Row slice access for iteration.
  [[nodiscard]] const std::vector<std::size_t>& row_offsets() const {
    return row_offsets_;
  }
  [[nodiscard]] const std::vector<std::size_t>& col_indices() const {
    return col_indices_;
  }
  [[nodiscard]] const std::vector<float>& values() const { return values_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;  // size rows_+1
  std::vector<std::size_t> col_indices_;
  std::vector<float> values_;
  bool symmetric_ = false;
  // Transpose in CSR form, built eagerly at construction so the class
  // is immutable afterwards. Empty when symmetric_.
  void build_transpose();
  std::vector<std::size_t> t_row_offsets_;
  std::vector<std::size_t> t_col_indices_;
  std::vector<float> t_values_;
};

}  // namespace gnn4ip::tensor
