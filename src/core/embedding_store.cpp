#include "core/embedding_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>

#include "core/snapshot_format.h"
#include "util/contract.h"

namespace gnn4ip::core {

void EmbeddingStore::requantize_row(std::size_t i) {
  const std::span<const float> x =
      std::span<const float>(data_).subspan(i * dim_, dim_);
  norms_[i] = row_norm(x);
  gate_normd_[i] = static_cast<double>(norms_[i]);
  float max_abs = 0.0F;
  for (const float v : x) max_abs = std::max(max_abs, std::fabs(v));
  const float scale = max_abs / 127.0F;
  scales_[i] = scale;
  gate_scale_[i] = static_cast<double>(scale);
  std::int8_t* q = qdata_.data() + i * dim_;
  if (scale == 0.0F) {
    std::fill(q, q + dim_, std::int8_t{0});
    qnorms_[i] = 0.0F;
    enorms_[i] = 0.0F;
    gate_sq_[i] = 0.0;
    gate_e_[i] = 0.0;
    return;
  }
  // Round-to-nearest (half away from zero — rounding-mode independent,
  // so a loaded snapshot rebuilds the same bytes on any host), then the
  // residual/quant norms in double with a small upward margin: they
  // only need to be *upper* bounds for the enclosure to stay rigorous.
  double q_sq = 0.0;
  double e_sq = 0.0;
  for (std::size_t k = 0; k < dim_; ++k) {
    const long r = std::lround(x[k] / scale);
    const long clamped = std::clamp(r, -127L, 127L);
    q[k] = static_cast<std::int8_t>(clamped);
    // lint:allow(fp-accum): sequential k-order fold over one row; no
    // schedule can reorder it.
    q_sq += static_cast<double>(clamped) * static_cast<double>(clamped);
    const double e = static_cast<double>(x[k]) -
                     static_cast<double>(scale) * static_cast<double>(clamped);
    // lint:allow(fp-accum): same sequential fold as q_sq above.
    e_sq += e * e;
  }
  qnorms_[i] = static_cast<float>(std::sqrt(q_sq) * (1.0 + 1e-6));
  enorms_[i] = static_cast<float>(std::sqrt(e_sq) * (1.0 + 1e-6) + 1e-30);
  // Keep the gate SoA in lock-step with make_quant_gate's arithmetic on
  // the float values above — quant_stats() must agree to the bit with a
  // gate built from quant_view(i).
  gate_sq_[i] = static_cast<double>(scales_[i]) * qnorms_[i];
  gate_e_[i] = enorms_[i];
}

std::size_t EmbeddingStore::add(std::string name,
                                const tensor::Matrix& embedding) {
  GNN4IP_ENSURE(!embedding.empty(), "EmbeddingStore: empty embedding");
  if (dim_ == 0) {
    dim_ = embedding.size();
  } else {
    GNN4IP_ENSURE(embedding.size() == dim_,
                  "EmbeddingStore: embedding dim " +
                      std::to_string(embedding.size()) + " != corpus dim " +
                      std::to_string(dim_));
  }
  const std::span<const float> flat = embedding.data();
  data_.insert(data_.end(), flat.begin(), flat.end());
  names_.push_back(std::move(name));
  dead_.push_back(false);
  hole_.push_back(false);
  ++live_count_;
  const std::size_t index = names_.size() - 1;
  qdata_.resize(qdata_.size() + dim_);
  scales_.push_back(0.0F);
  norms_.push_back(0.0F);
  qnorms_.push_back(0.0F);
  enorms_.push_back(0.0F);
  gate_scale_.push_back(0.0);
  gate_sq_.push_back(0.0);
  gate_e_.push_back(0.0);
  gate_normd_.push_back(0.0);
  requantize_row(index);
  return index;
}

float EmbeddingStore::norm(std::size_t i) const {
  GNN4IP_ENSURE(i < norms_.size(), "EmbeddingStore: index out of range");
  return norms_[i];
}

std::span<const std::int8_t> EmbeddingStore::qrow(std::size_t i) const {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: row index out of range");
  return std::span<const std::int8_t>(qdata_).subspan(i * dim_, dim_);
}

QuantRowView EmbeddingStore::quant_view(std::size_t i) const {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: row index out of range");
  return {qdata_.data() + i * dim_, scales_[i], qnorms_[i], enorms_[i],
          norms_[i]};
}

const std::string& EmbeddingStore::name(std::size_t i) const {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: index out of range");
  return names_[i];
}

std::span<const float> EmbeddingStore::row(std::size_t i) const {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: row index out of range");
  return std::span<const float>(data_).subspan(i * dim_, dim_);
}

void EmbeddingStore::remove(std::size_t i) {
  GNN4IP_ENSURE(i < names_.size(), "EmbeddingStore: remove out of range");
  GNN4IP_ENSURE(!dead_[i], "EmbeddingStore: row already removed");
  dead_[i] = true;
  --live_count_;
}

std::vector<std::size_t> EmbeddingStore::compact() {
  std::vector<std::size_t> mapping(names_.size(), kNoIndex);
  std::size_t next = 0;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (dead_[i]) continue;
    mapping[i] = next;
    if (next != i) {
      names_[next] = std::move(names_[i]);
      std::copy(data_.begin() + static_cast<std::ptrdiff_t>(i * dim_),
                data_.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim_),
                data_.begin() + static_cast<std::ptrdiff_t>(next * dim_));
      // The quant tier moves with its row — no requantization, so the
      // tier stays byte-identical to what add() derived.
      std::copy(qdata_.begin() + static_cast<std::ptrdiff_t>(i * dim_),
                qdata_.begin() + static_cast<std::ptrdiff_t>((i + 1) * dim_),
                qdata_.begin() + static_cast<std::ptrdiff_t>(next * dim_));
      scales_[next] = scales_[i];
      norms_[next] = norms_[i];
      qnorms_[next] = qnorms_[i];
      enorms_[next] = enorms_[i];
      gate_scale_[next] = gate_scale_[i];
      gate_sq_[next] = gate_sq_[i];
      gate_e_[next] = gate_e_[i];
      gate_normd_[next] = gate_normd_[i];
    }
    ++next;
  }
  names_.resize(next);
  data_.resize(next * dim_);
  dead_.assign(next, false);
  hole_.assign(next, false);
  holes_ = 0;
  qdata_.resize(next * dim_);
  scales_.resize(next);
  norms_.resize(next);
  qnorms_.resize(next);
  enorms_.resize(next);
  gate_scale_.resize(next);
  gate_sq_.resize(next);
  gate_e_.resize(next);
  gate_normd_.resize(next);
  live_count_ = next;
  return mapping;
}

std::vector<std::size_t> EmbeddingStore::retire() {
  holes_ = names_.size() - live_count_;
  if (holes_ * kReclaimDivisor >= names_.size()) return compact();
  std::vector<std::size_t> mapping(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    mapping[i] = dead_[i] ? kNoIndex : i;
  }
  hole_ = dead_;
  return mapping;
}

namespace {

/// Names past this length are treated as corruption: a flipped bit in
/// a length prefix must not turn into a multi-gigabyte allocation.
constexpr std::uint64_t kMaxNameLength = 1u << 20;

}  // namespace

void EmbeddingStore::save(std::ostream& os) const {
  // Holes are not part of the saved state: every section below walks
  // the maximal runs of kept rows, so a store with holes writes the
  // bytes of its eagerly compacted twin (one run when there are none).
  const auto for_each_run = [this](const auto& write_run) {
    std::size_t i = 0;
    while (i < names_.size()) {
      if (hole_[i]) {
        ++i;
        continue;
      }
      std::size_t end = i + 1;
      while (end < names_.size() && !hole_[end]) ++end;
      write_run(i, end);
      i = end;
    }
  };
  // Fixed-offset header (docs/FORMATS.md): magic, version, byte-order
  // mark, dim, row count, live count — then the float block starts at
  // byte 40, 8-byte-aligned, so a loader may mmap it in place.
  write_bytes(os, kShardMagic, sizeof(kShardMagic));
  write_u32(os, kShardFormatVersion);
  write_u32(os, kByteOrderMark);
  write_u64(os, dim_);
  write_u64(os, names_.size() - holes_);
  write_u64(os, live_count_);
  for_each_run([&](std::size_t begin, std::size_t end) {
    write_bytes(os, data_.data() + begin * dim_,
                (end - begin) * dim_ * sizeof(float));
  });
  for_each_run([&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint8_t flag = dead_[i] ? 0 : 1;
      write_bytes(os, &flag, 1);
    }
  });
  for_each_run([&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      write_u64(os, names_[i].size());
      write_bytes(os, names_[i].data(), names_[i].size());
    }
  });
  // Optional quantized-tier section: tag, per-row scales, int8 block.
  // Derived norms are recomputed on load (cheaper than their bytes);
  // scales and q are written so a loader can cross-check the tier
  // against a deterministic rebuild and reject a tampered section.
  write_bytes(os, kQuantSectionTag, sizeof(kQuantSectionTag));
  for_each_run([&](std::size_t begin, std::size_t end) {
    write_bytes(os, scales_.data() + begin, (end - begin) * sizeof(float));
  });
  for_each_run([&](std::size_t begin, std::size_t end) {
    write_bytes(os, qdata_.data() + begin * dim_, (end - begin) * dim_);
  });
}

EmbeddingStore EmbeddingStore::load(std::istream& is,
                                    std::size_t expected_dim) {
  char magic[sizeof(kShardMagic)] = {};
  read_bytes(is, magic, sizeof(magic), "shard magic");
  if (std::memcmp(magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    throw SnapshotMagicError(
        "not a gnn4ip shard file (missing G4IPSHRD magic)");
  }
  const std::uint32_t version = read_u32(is, "shard format version");
  if (version != kShardFormatVersion) {
    throw SnapshotVersionError(
        "unsupported shard format version " + std::to_string(version) +
        "; this build reads v" + std::to_string(kShardFormatVersion));
  }
  const std::uint32_t bom = read_u32(is, "shard byte-order mark");
  if (bom != kByteOrderMark) {
    throw SnapshotByteOrderError(
        "shard file was written on a host with a different byte order");
  }
  const std::uint64_t dim = read_u64(is, "shard dim");
  const std::uint64_t rows = read_u64(is, "shard row count");
  const std::uint64_t live = read_u64(is, "shard live count");
  if (expected_dim != 0 && rows != 0 && dim != expected_dim) {
    throw SnapshotDimError("shard dim " + std::to_string(dim) +
                           " does not match the expected dim " +
                           std::to_string(expected_dim) + " (dim drift)");
  }
  if (live > rows || (rows != 0 && dim == 0)) {
    throw SnapshotManifestError(
        "shard header is inconsistent (live count " + std::to_string(live) +
        " of " + std::to_string(rows) + " rows, dim " + std::to_string(dim) +
        ")");
  }
  EmbeddingStore store;
  store.dim_ = dim;
  store.data_.resize(rows * dim);
  read_bytes(is, store.data_.data(), store.data_.size() * sizeof(float),
             "shard row block");
  store.dead_.resize(rows);
  store.hole_.assign(rows, false);
  std::size_t counted_live = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint8_t flag = 0;
    read_bytes(is, &flag, 1, "shard live flags");
    store.dead_[i] = flag == 0;
    counted_live += flag != 0 ? 1 : 0;
  }
  if (counted_live != live) {
    throw SnapshotManifestError(
        "shard header declares " + std::to_string(live) +
        " live rows but the flags mark " + std::to_string(counted_live));
  }
  store.live_count_ = counted_live;
  store.names_.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint64_t length = read_u64(is, "shard name length");
    if (length > kMaxNameLength) {
      throw SnapshotTruncatedError(
          "implausible name length " + std::to_string(length) +
          " in shard name table (corrupt file)");
    }
    std::string name(length, '\0');
    read_bytes(is, name.data(), length, "shard name table");
    store.names_.push_back(std::move(name));
  }
  // Rebuild the quant tier deterministically from the float rows — the
  // floats round-tripped as exact bytes, so this reproduces the saved
  // tier byte-for-byte.
  store.qdata_.resize(rows * dim);
  store.scales_.resize(rows);
  store.norms_.resize(rows);
  store.qnorms_.resize(rows);
  store.enorms_.resize(rows);
  store.gate_scale_.resize(rows);
  store.gate_sq_.resize(rows);
  store.gate_e_.resize(rows);
  store.gate_normd_.resize(rows);
  for (std::uint64_t i = 0; i < rows; ++i) store.requantize_row(i);
  // Optional QNT8 section. Absent (EOF right here): a pre-tier file —
  // the rebuild above already stands in. Present: it must match the
  // rebuild exactly, so a poisoned quant block (which would silently
  // skew every pruning bound) is a loud typed rejection. Anything else
  // after the name table is trailing garbage.
  char tag[sizeof(kQuantSectionTag)] = {};
  is.read(tag, sizeof(tag));
  if (is.gcount() == 0 && is.eof()) return store;
  if (is.gcount() != static_cast<std::streamsize>(sizeof(tag)) ||
      std::memcmp(tag, kQuantSectionTag, sizeof(tag)) != 0) {
    throw SnapshotTruncatedError(
        "shard file carries trailing bytes after the name table that are "
        "not a QNT8 section");
  }
  std::vector<float> scales(rows);
  std::vector<std::int8_t> qdata(rows * dim);
  read_bytes(is, scales.data(), scales.size() * sizeof(float),
             "shard quant scales");
  read_bytes(is, qdata.data(), qdata.size(), "shard quant rows");
  if (rows != 0 &&
      (std::memcmp(scales.data(), store.scales_.data(),
                   scales.size() * sizeof(float)) != 0 ||
       std::memcmp(qdata.data(), store.qdata_.data(), qdata.size()) != 0)) {
    throw SnapshotManifestError(
        "shard quantized section disagrees with the float rows (corrupt or "
        "tampered QNT8 block)");
  }
  expect_eof(is, "shard file");
  return store;
}

tensor::Matrix EmbeddingStore::embedding_matrix() const {
  tensor::Matrix m(names_.size(), dim_);
  std::copy(data_.begin(), data_.end(), m.data().begin());
  return m;
}

}  // namespace gnn4ip::core
