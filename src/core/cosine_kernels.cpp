#include "core/cosine_kernels.h"

#include <algorithm>
#include <cmath>

#include "util/contract.h"
#include "util/thread_pool.h"

namespace gnn4ip::core {

float row_norm(std::span<const float> row) {
  float sq = 0.0F;
  for (const float v : row) sq += v * v;
  return std::sqrt(sq);
}

std::vector<float> row_norms(std::span<const float> data, std::size_t rows,
                             std::size_t dim) {
  GNN4IP_ENSURE(data.size() == rows * dim,
                "row_norms: buffer size does not match rows × dim");
  std::vector<float> norms(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    norms[i] = row_norm(data.subspan(i * dim, dim));
  }
  return norms;
}

float cosine_pair(std::span<const float> a, std::span<const float> b) {
  GNN4IP_ENSURE(a.size() == b.size(), "cosine_pair: row lengths differ");
  // Three independent ascending-k accumulators: the dot product matches
  // the cosine_rows cell, and each sum of squares matches row_norm, so
  // this fused loop is bit-identical to the precomputed-norm kernels.
  float ab = 0.0F;
  float aa = 0.0F;
  float bb = 0.0F;
  for (std::size_t k = 0; k < a.size(); ++k) {
    ab += a[k] * b[k];
    aa += a[k] * a[k];
    bb += b[k] * b[k];
  }
  const float denom = std::max(std::sqrt(aa) * std::sqrt(bb), kNormFloor);
  return std::clamp(ab / denom, -1.0F, 1.0F);
}

tensor::Matrix cosine_rows(std::span<const float> a, std::size_t a_rows,
                           std::span<const float> b, std::size_t b_rows,
                           std::size_t dim, const ScorerOptions& options) {
  GNN4IP_ENSURE(a.size() == a_rows * dim && b.size() == b_rows * dim,
                "cosine_rows: buffer size does not match rows × dim");
  tensor::Matrix result(a_rows, b_rows);
  if (a_rows == 0 || b_rows == 0) return result;

  const std::vector<float> norms_a = row_norms(a, a_rows, dim);
  const std::vector<float> norms_b = row_norms(b, b_rows, dim);
  const std::size_t block = std::max<std::size_t>(options.block_rows, 1);
  const std::size_t row_tiles = (a_rows + block - 1) / block;
  const std::size_t col_tiles = (b_rows + block - 1) / block;

  const auto run_tile = [&](std::size_t tile) {
    const std::size_t i0 = (tile / col_tiles) * block;
    const std::size_t j0 = (tile % col_tiles) * block;
    const std::size_t i1 = std::min(i0 + block, a_rows);
    const std::size_t j1 = std::min(j0 + block, b_rows);
    for (std::size_t i = i0; i < i1; ++i) {
      const float* ra = a.data() + i * dim;
      const std::span<float> out = result.row(i);
      for (std::size_t j = j0; j < j1; ++j) {
        out[j] = cosine_cell(ra, b.data() + j * dim, dim,
                             norms_a[i] * norms_b[j]);
      }
    }
  };
  util::parallel_for(row_tiles * col_tiles, options.num_threads, run_tile);
  return result;
}

tensor::Matrix cosine_rows(const tensor::Matrix& a, const tensor::Matrix& b,
                           const ScorerOptions& options) {
  GNN4IP_ENSURE(a.cols() == b.cols(),
                "cosine_rows: dimension mismatch " + a.shape_string() +
                    " vs " + b.shape_string());
  if (a.rows() == 0 || b.rows() == 0) return tensor::Matrix(a.rows(), b.rows());
  return cosine_rows(a.data(), a.rows(), b.data(), b.rows(), a.cols(),
                     options);
}

}  // namespace gnn4ip::core
