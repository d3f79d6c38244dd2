// GNN layer tests: featurization, GCN propagation, SAGPool, readout,
// hw2vec end-to-end, and model serialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "data/corpus.h"
#include "dfg/node_kind.h"
#include "dfg/pipeline.h"
#include "gnn/featurize.h"
#include "gnn/gcn_layer.h"
#include "gnn/hw2vec.h"
#include "gnn/model_io.h"
#include "gnn/readout.h"
#include "gnn/sag_pool.h"
#include "util/contract.h"

namespace gnn4ip::gnn {
namespace {

graph::Digraph tiny_graph() {
  graph::Digraph g;
  g.add_node("out", static_cast<int>(dfg::NodeKind::kOutput));
  g.add_node("op", static_cast<int>(dfg::NodeKind::kXor));
  g.add_node("a", static_cast<int>(dfg::NodeKind::kInput));
  g.add_node("b", static_cast<int>(dfg::NodeKind::kInput));
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  return g;
}

TEST(Featurize, OneHotRows) {
  const GraphTensors t = featurize(tiny_graph());
  ASSERT_EQ(t.x.rows(), 4u);
  ASSERT_EQ(t.x.cols(), static_cast<std::size_t>(dfg::kNodeKindCount));
  // Each row sums to exactly 1.
  for (std::size_t r = 0; r < t.x.rows(); ++r) {
    float sum = 0.0F;
    for (float v : t.x.row(r)) sum += v;
    EXPECT_FLOAT_EQ(sum, 1.0F);
  }
  EXPECT_FLOAT_EQ(t.x.at(0, static_cast<std::size_t>(dfg::NodeKind::kOutput)),
                  1.0F);
}

TEST(Featurize, NormalizedAdjacencyRowsAreFinite) {
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix dense = t.adj->to_dense();
  for (float v : dense.data()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0F);
    EXPECT_LE(v, 1.0F);
  }
  // Self-loops present: diagonal strictly positive.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(dense.at(i, i), 0.0F);
  }
}

TEST(Featurize, SymmetrizeControlsOffDiagonal) {
  GraphTensors sym = featurize(tiny_graph(), {.symmetrize = true});
  GraphTensors asym = featurize(tiny_graph(), {.symmetrize = false});
  const tensor::Matrix ds = sym.adj->to_dense();
  const tensor::Matrix da = asym.adj->to_dense();
  // Edge 1->2 exists; reverse only in symmetric mode.
  EXPECT_GT(ds.at(2, 1), 0.0F);
  EXPECT_FLOAT_EQ(da.at(2, 1), 0.0F);
  EXPECT_GT(da.at(1, 2), 0.0F);
}

TEST(Featurize, NormalizationMatchesEq5ByHand) {
  // Two nodes, one edge, symmetric: Â = [[1,1],[1,1]], D̂ = diag(2,2)
  // -> normalized entries all 1/2.
  graph::Digraph g;
  g.add_node("a", 0);
  g.add_node("b", 1);
  g.add_edge(0, 1);
  const GraphTensors t = featurize(g);
  const tensor::Matrix dense = t.adj->to_dense();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(dense.at(i, j), 0.5F, 1e-6F);
    }
  }
}

// featurize as it was built before it went row by row: edges deduped
// through an ordered set, Â's entries through another, degrees summed
// one entry at a time, and the CSR assembled by Csr::from_triplets
// (which stores a transpose).
struct ReferenceTensors {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  tensor::Csr adj;
};

ReferenceTensors reference_featurize(const graph::Digraph& g,
                                     bool symmetrize) {
  ReferenceTensors ref;
  std::set<std::pair<std::size_t, std::size_t>> dedup;
  for (const auto& [src, dst] : g.edges()) {
    if (src != dst) {
      dedup.insert({static_cast<std::size_t>(src),
                    static_cast<std::size_t>(dst)});
    }
  }
  ref.edges.assign(dedup.begin(), dedup.end());
  const std::size_t n = g.num_nodes();
  std::set<std::pair<std::size_t, std::size_t>> entries;
  for (std::size_t v = 0; v < n; ++v) entries.insert({v, v});
  for (const auto& [src, dst] : ref.edges) {
    entries.insert({src, dst});
    if (symmetrize) entries.insert({dst, src});
  }
  std::vector<float> degree(n, 0.0F);
  for (const auto& [r, c] : entries) degree[r] += 1.0F;
  std::vector<float> inv_sqrt(n);
  for (std::size_t v = 0; v < n; ++v) {
    inv_sqrt[v] = 1.0F / std::sqrt(degree[v]);
  }
  std::vector<tensor::Triplet> triplets;
  for (const auto& [r, c] : entries) {
    triplets.push_back({r, c, inv_sqrt[r] * inv_sqrt[c]});
  }
  ref.adj = tensor::Csr::from_triplets(n, n, std::move(triplets));
  return ref;
}

// Every bundled design as a DFG: one instance of each RTL family, each
// structural netlist family, the ISCAS originals and obfuscations of
// each of them.
const std::vector<graph::Digraph>& bundled_dfgs() {
  static const std::vector<graph::Digraph> graphs = [] {
    data::RtlCorpusOptions rtl;
    rtl.instances_per_family = 2;
    std::vector<data::CorpusItem> items = data::build_rtl_corpus(rtl);
    for (const std::string& family : data::netlist_family_names()) {
      items.push_back({family, family, "netlist",
                       data::build_netlist_family(family).to_verilog()});
    }
    for (data::CorpusItem& item : data::build_iscas_originals()) {
      items.push_back(std::move(item));
    }
    data::IscasCorpusOptions obfuscated;
    obfuscated.obfuscated_per_benchmark = 5;
    for (data::CorpusItem& item : data::build_iscas_obfuscated(obfuscated)) {
      items.push_back(std::move(item));
    }
    std::vector<graph::Digraph> out;
    out.reserve(items.size());
    for (const data::CorpusItem& item : items) {
      out.push_back(dfg::extract_dfg(item.verilog));
    }
    return out;
  }();
  return graphs;
}

void expect_same_tensors(const GraphTensors& t, const ReferenceTensors& ref,
                         bool symmetrize) {
  EXPECT_EQ(t.edges, ref.edges);
  EXPECT_EQ(t.adj->symmetric(), symmetrize);
  EXPECT_EQ(t.adj->row_offsets(), ref.adj.row_offsets());
  EXPECT_EQ(t.adj->col_indices(), ref.adj.col_indices());
  // Bitwise: exact float equality, not a tolerance.
  EXPECT_EQ(t.adj->values(), ref.adj.values());
  // Sᵀ·X, served from S itself when symmetric, from a stored
  // transpose otherwise, must match the transpose-carrying reference.
  tensor::Matrix x(t.num_nodes, 5);
  util::Rng rng(t.num_nodes);
  for (float& v : x.data()) v = rng.uniform(-1, 1);
  EXPECT_EQ(tensor::max_abs_diff(t.adj->multiply_transposed(x),
                                 ref.adj.multiply_transposed(x)),
            0.0F);
}

TEST(Featurize, MatchesOrderedSetReferenceOnSmallGraphs) {
  graph::Digraph g = tiny_graph();
  g.add_edge(2, 1);                              // a two-cycle
  g.add_edge(3, 3, /*allow_self_loop=*/true);    // dropped, re-added as Â_ii
  g.add_edge(0, 3);
  for (const bool sym : {true, false}) {
    expect_same_tensors(featurize(g, {.symmetrize = sym}),
                        reference_featurize(g, sym), sym);
  }
}

TEST(Featurize, MatchesOrderedSetReferenceOnBundledDesigns) {
  for (const graph::Digraph& g : bundled_dfgs()) {
    for (const bool sym : {true, false}) {
      expect_same_tensors(featurize(g, {.symmetrize = sym}),
                          reference_featurize(g, sym), sym);
    }
  }
}

TEST(Featurize, EmptyGraphRejected) {
  graph::Digraph g;
  EXPECT_THROW(featurize(g), util::ContractViolation);
}

TEST(GcnLayer, OutputShapeAndRelu) {
  util::Rng rng(1);
  GcnLayer layer(static_cast<std::size_t>(dfg::kNodeKindCount), 8, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var y = layer.forward(tape, t.adj, x);
  EXPECT_EQ(y.value().rows(), 4u);
  EXPECT_EQ(y.value().cols(), 8u);
  for (float v : y.value().data()) EXPECT_GE(v, 0.0F);  // ReLU
}

TEST(GcnLayer, PropagationMixesNeighborFeatures) {
  // With identity-ish weights, a node's output depends on neighbors.
  util::Rng rng(2);
  GcnLayer layer(static_cast<std::size_t>(dfg::kNodeKindCount), 4, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var y1 = layer.forward(tape, t.adj, x, /*apply_relu=*/false);

  // Zero out the op-node's neighbors' features: output at op changes.
  tensor::Matrix x2 = t.x;
  for (std::size_t c = 0; c < x2.cols(); ++c) {
    x2.at(2, c) = 0.0F;
    x2.at(3, c) = 0.0F;
  }
  tensor::Var vx2 = tape.constant(x2);
  tensor::Var y2 = layer.forward(tape, t.adj, vx2, false);
  float diff = 0.0F;
  for (std::size_t c = 0; c < 4; ++c) {
    diff += std::fabs(y1.value().at(1, c) - y2.value().at(1, c));
  }
  EXPECT_GT(diff, 1e-6F);
}

TEST(GcnLayer, TapeFreeForwardMatchesTape) {
  util::Rng rng(9);
  GcnLayer layer(static_cast<std::size_t>(dfg::kNodeKindCount), 8, rng);
  layer.bias().value.fill(0.25F);
  const GraphTensors t = featurize(tiny_graph());
  for (const bool relu : {true, false}) {
    tensor::Tape tape;
    const tensor::Var y = layer.forward(tape, t.adj, tape.constant(t.x), relu);
    const tensor::Matrix direct = layer.forward(*t.adj, t.x, relu);
    ASSERT_TRUE(direct.same_shape(y.value()));
    EXPECT_EQ(tensor::max_abs_diff(direct, y.value()), 0.0F);
  }
}

TEST(SagPool, KeepsCeilRatioNodes) {
  util::Rng rng(3);
  SagPool pool(4, 0.5F, rng);
  GcnLayer embed(static_cast<std::size_t>(dfg::kNodeKindCount), 4, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var h = embed.forward(tape, t.adj, x);
  const SagPool::Result r = pool.forward(tape, t, h);
  EXPECT_EQ(r.kept.size(), 2u);  // ceil(0.5 * 4)
  EXPECT_EQ(r.x.value().rows(), 2u);
}

TEST(SagPool, RatioOneKeepsAll) {
  util::Rng rng(4);
  SagPool pool(4, 1.0F, rng);
  GcnLayer embed(static_cast<std::size_t>(dfg::kNodeKindCount), 4, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var x = tape.constant(t.x);
  tensor::Var h = embed.forward(tape, t.adj, x);
  const SagPool::Result r = pool.forward(tape, t, h);
  EXPECT_EQ(r.kept.size(), 4u);
}

TEST(SagPool, TapeFreeForwardMatchesTape) {
  util::Rng rng(5);
  SagPool pool(4, 0.75F, rng);  // keep 3 of 4
  GcnLayer embed(static_cast<std::size_t>(dfg::kNodeKindCount), 4, rng);
  const GraphTensors t = featurize(tiny_graph());
  tensor::Tape tape;
  tensor::Var h = embed.forward(tape, t.adj, tape.constant(t.x));
  const SagPool::Result r = pool.forward(tape, t, h);
  EXPECT_EQ(r.kept.size(), 3u);
  EXPECT_TRUE(std::is_sorted(r.kept.begin(), r.kept.end()));
  const tensor::Matrix pooled = pool.forward(t, h.value());
  ASSERT_TRUE(pooled.same_shape(r.x.value()));
  EXPECT_EQ(tensor::max_abs_diff(pooled, r.x.value()), 0.0F);
  // The same contracts as the tape path.
  EXPECT_THROW((void)pool.forward(t, tensor::Matrix(3, 4)),
               util::ContractViolation);
}

TEST(SagPool, InvalidRatioRejected) {
  util::Rng rng(6);
  EXPECT_THROW(SagPool(4, 0.0F, rng), util::ContractViolation);
  EXPECT_THROW(SagPool(4, 1.5F, rng), util::ContractViolation);
}

TEST(Readout, StringRoundTrip) {
  EXPECT_EQ(readout_from_string("max"), Readout::kMax);
  EXPECT_EQ(readout_from_string("mean"), Readout::kMean);
  EXPECT_EQ(readout_from_string("sum"), Readout::kSum);
  EXPECT_STREQ(to_string(Readout::kMax), "max");
  EXPECT_THROW((void)readout_from_string("median"), std::invalid_argument);
}

TEST(Readout, TapeFreeMatchesTape) {
  const tensor::Matrix m =
      tensor::Matrix::from_rows({{1, -4, 0.1F}, {3, 2, 0.2F}, {3, -1, 0.7F}});
  for (const Readout mode : {Readout::kSum, Readout::kMean, Readout::kMax}) {
    tensor::Tape tape;
    const tensor::Var y = apply_readout(tape, tape.constant(m), mode);
    EXPECT_EQ(tensor::max_abs_diff(apply_readout(m, mode), y.value()), 0.0F)
        << to_string(mode);
  }
  EXPECT_THROW((void)apply_readout(tensor::Matrix(0, 3), Readout::kSum),
               util::ContractViolation);
}

TEST(Readout, AppliesSelectedOperation) {
  tensor::Tape tape;
  tensor::Var x =
      tape.constant(tensor::Matrix::from_rows({{1, 4}, {3, 2}}));
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kSum).value().at(0, 0),
                  4.0F);
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kMean).value().at(0, 1),
                  3.0F);
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kMax).value().at(0, 0),
                  3.0F);
  EXPECT_FLOAT_EQ(apply_readout(tape, x, Readout::kMax).value().at(0, 1),
                  4.0F);
}

TEST(Hw2Vec, EmbeddingShapeMatchesHidden) {
  Hw2VecConfig config;
  config.hidden_dim = 16;
  Hw2Vec model(config);
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix h = model.embed_inference(t);
  EXPECT_EQ(h.rows(), 1u);
  EXPECT_EQ(h.cols(), 16u);
}

TEST(Hw2Vec, DeterministicInference) {
  Hw2Vec model;
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix h1 = model.embed_inference(t);
  const tensor::Matrix h2 = model.embed_inference(t);
  EXPECT_LT(tensor::max_abs_diff(h1, h2), 1e-7F);
}

TEST(Hw2Vec, SeedChangesWeights) {
  Hw2VecConfig c1;
  c1.seed = 1;
  Hw2VecConfig c2;
  c2.seed = 2;
  Hw2Vec m1(c1);
  Hw2Vec m2(c2);
  const GraphTensors t = featurize(tiny_graph());
  EXPECT_GT(tensor::max_abs_diff(m1.embed_inference(t),
                                 m2.embed_inference(t)),
            1e-6F);
}

TEST(Hw2Vec, ParameterCount) {
  Hw2VecConfig config;
  config.num_layers = 2;
  Hw2Vec model(config);
  // 2 convs × (W, b) + scorer (W, b) = 6 parameters.
  EXPECT_EQ(model.parameters().size(), 6u);
}

TEST(Hw2Vec, GradientsFlowToAllParameters) {
  Hw2Vec model;
  const GraphTensors t = featurize(tiny_graph());
  util::Rng rng(7);
  tensor::Tape tape;
  tensor::Var h = model.embed(tape, t, rng, /*training=*/false);
  tensor::Var target =
      tape.constant(tensor::Matrix::ones(1, h.value().cols()));
  tensor::Var sim = tape.cosine_similarity(h, target);
  tensor::Var loss = tape.cosine_embedding_loss(sim, 1, 0.5F);
  tape.backward(loss);
  int with_grad = 0;
  for (tensor::Parameter* p : model.parameters()) {
    if (p->grad.max_abs() > 0.0F) ++with_grad;
  }
  // At minimum both conv weights and the scorer weight receive gradient.
  EXPECT_GE(with_grad, 3);
}

TEST(Hw2Vec, RealDfgEndToEnd) {
  const graph::Digraph g = dfg::extract_dfg(
      "module m (input [3:0] a, input [3:0] b, output [3:0] y);\n"
      "  assign y = (a & b) | (a ^ b);\n"
      "endmodule\n");
  Hw2Vec model;
  const tensor::Matrix h = model.embed_inference(featurize(g));
  EXPECT_EQ(h.cols(), 16u);
  for (float v : h.data()) EXPECT_TRUE(std::isfinite(v));
}

// The tape path is the oracle for the tape-free one: the same kernels
// in the same order must give the same bits, on every bundled design,
// for each readout, with and without the last-layer ReLU, over
// symmetric and directed adjacencies.
struct OracleCase {
  const char* name;
  Readout readout;
  bool relu_last_layer;
  bool symmetrize;
};

class Hw2VecOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(Hw2VecOracle, TapeFreeEmbeddingIsBitIdenticalToTape) {
  const OracleCase& c = GetParam();
  Hw2VecConfig config;
  config.readout = c.readout;
  config.relu_last_layer = c.relu_last_layer;
  config.symmetrize_adjacency = c.symmetrize;
  config.seed = 13;
  Hw2Vec model(config);
  std::size_t compared = 0;
  for (const graph::Digraph& g : bundled_dfgs()) {
    const GraphTensors t = featurize(g, {.symmetrize = c.symmetrize});
    tensor::Tape tape;
    util::Rng unused(0);
    const tensor::Matrix oracle =
        model.embed(tape, t, unused, /*training=*/false).value();
    const tensor::Matrix direct = model.embed_inference(t);
    ASSERT_TRUE(direct.same_shape(oracle));
    EXPECT_EQ(tensor::max_abs_diff(direct, oracle), 0.0F)
        << "graph " << compared << " (" << g.num_nodes() << " nodes)";
    ++compared;
  }
  EXPECT_GT(compared, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    BundledDesigns, Hw2VecOracle,
    ::testing::Values(OracleCase{"max", Readout::kMax, false, true},
                      OracleCase{"sum", Readout::kSum, false, true},
                      OracleCase{"mean", Readout::kMean, false, true},
                      OracleCase{"max_relu_last", Readout::kMax, true, true},
                      OracleCase{"max_directed", Readout::kMax, false, false},
                      OracleCase{"mean_relu_last_directed", Readout::kMean,
                                 true, false}),
    [](const ::testing::TestParamInfo<OracleCase>& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Hw2Vec, TapeFreeInferenceKeepsTheTapeContracts) {
  const Hw2Vec model;
  GraphTensors t = featurize(tiny_graph());
  GraphTensors narrow = t;
  narrow.x = tensor::Matrix(t.num_nodes, 3);
  EXPECT_THROW((void)model.embed_inference(narrow), util::ContractViolation);
  GraphTensors miscounted = t;
  miscounted.num_nodes = t.num_nodes + 1;
  EXPECT_THROW((void)model.embed_inference(miscounted),
               util::ContractViolation);
  GraphTensors bare = t;
  bare.adj = nullptr;
  EXPECT_THROW((void)model.embed_inference(bare), util::ContractViolation);
}

TEST(ModelIo, SaveLoadRoundTrip) {
  Hw2VecConfig config;
  config.seed = 42;
  config.readout = Readout::kMean;
  config.pool_ratio = 0.25F;
  Hw2Vec model(config);
  const GraphTensors t = featurize(tiny_graph());
  const tensor::Matrix before = model.embed_inference(t);

  std::stringstream buffer;
  buffer.precision(9);
  save_model(buffer, model);
  Hw2Vec loaded = load_model(buffer);
  EXPECT_EQ(loaded.config().readout, Readout::kMean);
  EXPECT_FLOAT_EQ(loaded.config().pool_ratio, 0.25F);
  const tensor::Matrix after = loaded.embed_inference(t);
  EXPECT_LT(tensor::max_abs_diff(before, after), 1e-5F);
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream buffer("definitely not a model");
  EXPECT_THROW(load_model(buffer), std::runtime_error);
}

}  // namespace
}  // namespace gnn4ip::gnn
