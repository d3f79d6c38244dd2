// Seeded inputs of the RTL-to-verdict benchmark: the deterministic model,
// the resident libraries, and the op streams with their ground truth.
//
// Every stream has a fixed composition (how many ops of each family and
// kind) for a given op count; the workload seed only picks the variants
// and the order. That keeps the cost of a run the same across seeds, so
// the spread between runs is the host's, not the input's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "gnn/featurize.h"
#include "gnn/hw2vec.h"

namespace perfbench {

/// Hw2Vec trained on a fixed corpus with fixed seeds, and the decision
/// boundary δ its evaluation tunes. Identical on every call.
struct Trained {
  gnn4ip::gnn::Hw2Vec model;
  float delta = 0.5F;
};
/// `threads` is the trainer's worker count; the weights do not depend on it.
[[nodiscard]] Trained train_model(std::size_t threads);

struct Design {
  std::string name;
  std::string family;  // equal families are piracy pairs
  std::string verilog;
};

/// One always @(*) block of `n` sequential `if (c[i]) x = x + k;`
/// statements on one variable (the DFG growth shape of the roadmap).
[[nodiscard]] std::string if_chain_design(int n, std::uint64_t seed);

struct Op {
  enum class Kind : std::uint8_t { kSubmit, kRead };
  Kind kind = Kind::kSubmit;
  std::string name;       // submission name, or the resident read target
  std::size_t input = 0;  // index into the workload's design/tensor pool
  std::string family;     // family of the submitted design
  /// Ground truth: a design of the same family is resident when this
  /// submission is screened.
  bool truth = false;
};

/// rtl_audit: a pinned library of one instance per family (one RTL or
/// netlist family in four held out), a pool of held-out Verilog designs,
/// and the op stream over it.
struct RtlWorkload {
  std::vector<Design> library;
  std::vector<Design> pool;
  std::vector<Op> ops;
  std::size_t warmup = 0;  // leading ops run before timing starts
  std::size_t max_resident = 0;
};
/// Whole rounds: at least `warmup_ops` warm-up ops, then at least
/// `timed_ops` timed ones.
[[nodiscard]] RtlWorkload make_rtl_workload(std::uint64_t seed,
                                            std::size_t warmup_ops,
                                            std::size_t timed_ops);

/// Name under which every screen-workload probe (a design of a family
/// that never enters the library) is submitted.
inline constexpr const char* kProbeName = "probe";

/// resident_screen / remote_screen: a library of `library_rows` rows over
/// a pool of distinct compiled designs, a pool of held-out pre-featurized
/// submissions, and the op stream: blocks of one read, one probe and three
/// regular submissions.
struct ScreenWorkload {
  struct Row {
    std::string name;
    std::size_t design = 0;  // index into library_tensors
    bool pinned = false;
  };
  std::vector<Row> rows;
  std::vector<gnn4ip::gnn::GraphTensors> library_tensors;
  std::vector<std::string> library_families;
  std::vector<gnn4ip::gnn::GraphTensors> pool;
  std::vector<std::string> pool_families;
  std::vector<Op> ops;
  std::size_t warmup = 0;  // leading ops run before timing starts
  std::size_t max_resident = 0;
};
/// Whole blocks, as for rtl_audit; the pools compile on `threads` workers.
[[nodiscard]] ScreenWorkload make_screen_workload(std::uint64_t seed,
                                                  std::size_t warmup_ops,
                                                  std::size_t timed_ops,
                                                  std::size_t library_rows,
                                                  std::size_t threads);

}  // namespace perfbench
