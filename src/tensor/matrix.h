// Dense row-major float matrix — the value type under the autograd tape.
//
// Deliberately minimal: the GNN needs matmul, transpose, elementwise
// arithmetic, row reductions, and a few initializers. No expression
// templates; the matrices here are small (N×41, N×16) so clarity wins.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gnn4ip::tensor {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0F);

  [[nodiscard]] static Matrix zeros(std::size_t rows, std::size_t cols);
  [[nodiscard]] static Matrix ones(std::size_t rows, std::size_t cols);
  /// Glorot/Xavier uniform initialization: U(−√(6/(in+out)), +√(6/(in+out))).
  [[nodiscard]] static Matrix glorot(std::size_t rows, std::size_t cols,
                                     util::Rng& rng);
  /// Build from nested initializer data (rows of equal length).
  [[nodiscard]] static Matrix from_rows(
      const std::vector<std::vector<float>>& rows);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c);
  [[nodiscard]] float at(std::size_t r, std::size_t c) const;

  [[nodiscard]] std::span<float> row(std::size_t r);
  [[nodiscard]] std::span<const float> row(std::size_t r) const;

  [[nodiscard]] std::span<float> data() { return data_; }
  [[nodiscard]] std::span<const float> data() const { return data_; }

  [[nodiscard]] bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  void fill(float value);
  /// this += other (same shape).
  void add_in_place(const Matrix& other);
  /// this += scale * other (same shape).
  void axpy_in_place(float scale, const Matrix& other);
  void scale_in_place(float factor);

  [[nodiscard]] float frobenius_norm() const;
  [[nodiscard]] float max_abs() const;
  [[nodiscard]] std::string shape_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A·B.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
/// C = Aᵀ·B (avoids materializing the transpose).
[[nodiscard]] Matrix matmul_at_b(const Matrix& a, const Matrix& b);
/// C = A·Bᵀ.
[[nodiscard]] Matrix matmul_a_bt(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix transpose(const Matrix& a);
[[nodiscard]] Matrix add(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix subtract(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);
/// Column-wise sum over rows -> 1×C, rows added in ascending order.
[[nodiscard]] Matrix column_sums(const Matrix& a);
/// Column-wise max over rows -> 1×C (a must have rows). When `argmax`
/// is given it receives, per column, the first row holding the max.
[[nodiscard]] Matrix column_max(const Matrix& a,
                                std::vector<std::size_t>* argmax = nullptr);
/// Dot product of two matrices viewed as flat vectors (shapes must match).
[[nodiscard]] float dot(const Matrix& a, const Matrix& b);
/// Max relative/absolute difference, for tests.
[[nodiscard]] float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace gnn4ip::tensor
