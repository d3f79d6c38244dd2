// Dense matrix and sparse CSR tests.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/csr.h"
#include "tensor/matrix.h"
#include "util/contract.h"
#include "util/rng.h"

namespace gnn4ip::tensor {
namespace {

TEST(Matrix, ConstructionAndFill) {
  Matrix m(2, 3, 1.5F);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m.at(1, 2), 1.5F);
  m.fill(0.0F);
  EXPECT_FLOAT_EQ(m.at(0, 0), 0.0F);
}

TEST(Matrix, FromRowsAndAt) {
  const Matrix m = Matrix::from_rows({{1, 2}, {3, 4}});
  EXPECT_FLOAT_EQ(m.at(0, 1), 2.0F);
  EXPECT_FLOAT_EQ(m.at(1, 0), 3.0F);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(Matrix::from_rows({{1, 2}, {3}}), util::ContractViolation);
}

TEST(Matrix, IndexOutOfRangeThrows) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), util::ContractViolation);
  EXPECT_THROW((void)m.at(0, 2), util::ContractViolation);
}

TEST(Matrix, MatmulSmall) {
  const Matrix a = Matrix::from_rows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::from_rows({{5, 6}, {7, 8}});
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 19.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 22.0F);
  EXPECT_FLOAT_EQ(c.at(1, 0), 43.0F);
  EXPECT_FLOAT_EQ(c.at(1, 1), 50.0F);
}

TEST(Matrix, MatmulShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW(matmul(a, b), util::ContractViolation);
}

TEST(Matrix, TransposedVariantsAgree) {
  util::Rng rng(5);
  Matrix a(4, 3);
  Matrix b(4, 5);
  for (float& x : a.data()) x = rng.uniform(-1, 1);
  for (float& x : b.data()) x = rng.uniform(-1, 1);
  // AᵀB via explicit transpose vs fused.
  const Matrix expected = matmul(transpose(a), b);
  const Matrix fused = matmul_at_b(a, b);
  EXPECT_LT(max_abs_diff(expected, fused), 1e-5F);

  Matrix c(5, 3);  // A·Cᵀ with A 4×3 needs C ?×3
  for (float& x : c.data()) x = rng.uniform(-1, 1);
  const Matrix expected2 = matmul(a, transpose(c));
  const Matrix fused2 = matmul_a_bt(a, c);
  EXPECT_LT(max_abs_diff(expected2, fused2), 1e-5F);
}

TEST(Matrix, AddSubtractHadamard) {
  const Matrix a = Matrix::from_rows({{1, 2}});
  const Matrix b = Matrix::from_rows({{3, 5}});
  EXPECT_FLOAT_EQ(add(a, b).at(0, 1), 7.0F);
  EXPECT_FLOAT_EQ(subtract(b, a).at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(hadamard(a, b).at(0, 1), 10.0F);
}

TEST(Matrix, NormsAndDot) {
  const Matrix a = Matrix::from_rows({{3, 4}});
  EXPECT_FLOAT_EQ(a.frobenius_norm(), 5.0F);
  EXPECT_FLOAT_EQ(a.max_abs(), 4.0F);
  const Matrix b = Matrix::from_rows({{1, 2}});
  EXPECT_FLOAT_EQ(dot(a, b), 11.0F);
}

TEST(Matrix, AxpyAndScale) {
  Matrix a = Matrix::from_rows({{1, 1}});
  const Matrix b = Matrix::from_rows({{2, 4}});
  a.axpy_in_place(0.5F, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(a.at(0, 1), 3.0F);
  a.scale_in_place(2.0F);
  EXPECT_FLOAT_EQ(a.at(0, 1), 6.0F);
}

TEST(Matrix, GlorotBoundsAndSpread) {
  util::Rng rng(3);
  const Matrix w = Matrix::glorot(30, 20, rng);
  const float bound = std::sqrt(6.0F / 50.0F);
  float max_seen = 0.0F;
  for (float x : w.data()) {
    EXPECT_LE(std::fabs(x), bound + 1e-6F);
    max_seen = std::max(max_seen, std::fabs(x));
  }
  EXPECT_GT(max_seen, bound * 0.5F);  // actually spread out
}

TEST(Csr, FromTripletsAndDense) {
  const Csr s = Csr::from_triplets(
      2, 3, {{0, 0, 1.0F}, {0, 2, 2.0F}, {1, 1, 3.0F}, {0, 0, 0.5F}});
  EXPECT_EQ(s.nnz(), 3u);  // duplicate (0,0) summed
  const Matrix d = s.to_dense();
  EXPECT_FLOAT_EQ(d.at(0, 0), 1.5F);
  EXPECT_FLOAT_EQ(d.at(0, 2), 2.0F);
  EXPECT_FLOAT_EQ(d.at(1, 1), 3.0F);
  EXPECT_FLOAT_EQ(d.at(1, 0), 0.0F);
}

TEST(Csr, MultiplyMatchesDense) {
  util::Rng rng(7);
  std::vector<Triplet> triplets;
  for (int k = 0; k < 30; ++k) {
    triplets.push_back({rng.next_below(6), rng.next_below(5),
                        rng.uniform(-1, 1)});
  }
  const Csr s = Csr::from_triplets(6, 5, triplets);
  Matrix x(5, 4);
  for (float& v : x.data()) v = rng.uniform(-1, 1);
  const Matrix via_sparse = s.multiply(x);
  const Matrix via_dense = matmul(s.to_dense(), x);
  EXPECT_LT(max_abs_diff(via_sparse, via_dense), 1e-5F);
}

TEST(Csr, MultiplyTransposedMatchesDense) {
  util::Rng rng(9);
  std::vector<Triplet> triplets;
  for (int k = 0; k < 25; ++k) {
    triplets.push_back({rng.next_below(4), rng.next_below(7),
                        rng.uniform(-1, 1)});
  }
  const Csr s = Csr::from_triplets(4, 7, triplets);
  Matrix x(4, 3);
  for (float& v : x.data()) v = rng.uniform(-1, 1);
  const Matrix via_sparse = s.multiply_transposed(x);
  const Matrix via_dense = matmul(transpose(s.to_dense()), x);
  EXPECT_LT(max_abs_diff(via_sparse, via_dense), 1e-5F);
}

TEST(Csr, SymmetricMultiplyTransposedMatchesGeneralTranspose) {
  // A symmetric CSR stores no transpose and reads itself for Sᵀ·X. Its
  // row c lists the same columns, in the same order and with the same
  // values, as row c of the transpose a general CSR builds, so the two
  // products agree bit for bit.
  util::Rng rng(17);
  const std::size_t n = 9;
  std::vector<float> scale(n);
  for (float& v : scale) v = rng.uniform(0.1F, 1.0F);
  std::vector<std::size_t> offsets{0};
  std::vector<std::size_t> cols;
  std::vector<float> values;
  std::vector<Triplet> triplets;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      // Symmetric pattern: keep (r, c) iff (r + c) % 3 != 1 or r == c.
      if ((r + c) % 3 == 1 && r != c) continue;
      cols.push_back(c);
      values.push_back(scale[r] * scale[c]);
      triplets.push_back({r, c, scale[r] * scale[c]});
    }
    offsets.push_back(cols.size());
  }
  const Csr sym = Csr::from_sorted(n, n, offsets, cols, values,
                                   /*symmetric=*/true);
  const Csr general = Csr::from_triplets(n, n, triplets);
  EXPECT_TRUE(sym.symmetric());
  EXPECT_FALSE(general.symmetric());
  Matrix x(n, 11);
  for (float& v : x.data()) v = rng.uniform(-1, 1);
  EXPECT_EQ(max_abs_diff(sym.multiply(x), general.multiply(x)), 0.0F);
  EXPECT_EQ(max_abs_diff(sym.multiply_transposed(x),
                         general.multiply_transposed(x)),
            0.0F);
  EXPECT_EQ(max_abs_diff(sym.multiply_transposed(x), sym.multiply(x)), 0.0F);
}

TEST(Csr, FromSortedRejectsMalformedArrays) {
  // Offsets that do not end at nnz.
  EXPECT_THROW(Csr::from_sorted(2, 2, {0, 1, 1}, {0, 1}, {1, 1}, false),
               util::ContractViolation);
  // A middle offset past nnz.
  EXPECT_THROW(Csr::from_sorted(2, 2, {0, 5, 1}, {0}, {1}, false),
               util::ContractViolation);
  // Columns out of order within a row.
  EXPECT_THROW(Csr::from_sorted(1, 3, {0, 2}, {2, 0}, {1, 1}, false),
               util::ContractViolation);
  // Column out of range.
  EXPECT_THROW(Csr::from_sorted(1, 2, {0, 1}, {2}, {1}, false),
               util::ContractViolation);
  // Symmetric but not square.
  EXPECT_THROW(Csr::from_sorted(1, 2, {0, 1}, {0}, {1}, true),
               util::ContractViolation);
  // A general CSR built this way keeps its transpose.
  const Csr s = Csr::from_sorted(2, 3, {0, 1, 2}, {2, 0}, {4, 5}, false);
  const Matrix t = s.multiply_transposed(Matrix(2, 1, 1.0F));
  EXPECT_FLOAT_EQ(t.at(0, 0), 5.0F);
  EXPECT_FLOAT_EQ(t.at(1, 0), 0.0F);
  EXPECT_FLOAT_EQ(t.at(2, 0), 4.0F);
}

TEST(Csr, ShapeChecks) {
  const Csr s = Csr::from_triplets(2, 3, {{0, 0, 1.0F}});
  Matrix wrong(2, 2);
  EXPECT_THROW(s.multiply(wrong), util::ContractViolation);
  Matrix wrong_t(3, 2);
  EXPECT_THROW(s.multiply_transposed(wrong_t), util::ContractViolation);
  EXPECT_THROW(Csr::from_triplets(1, 1, {{1, 0, 1.0F}}),
               util::ContractViolation);
}

TEST(Csr, EmptyMatrixMultiplies) {
  const Csr s = Csr::from_triplets(3, 3, {});
  Matrix x(3, 2, 1.0F);
  const Matrix y = s.multiply(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(y.at(2, 1), 0.0F);
}

}  // namespace
}  // namespace gnn4ip::tensor
