// DFG pipeline tests: dataflow analysis, merge, trim, end-to-end shapes.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string_view>
#include <unordered_set>

#include "data/corpus.h"
#include "dfg/dataflow.h"
#include "dfg/merge.h"
#include "dfg/node_kind.h"
#include "dfg/pipeline.h"
#include "dfg_golden.h"
#include "graph/algorithms.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"

namespace gnn4ip::dfg {
namespace {

using graph::Digraph;
using graph::NodeId;

Digraph dfg_of(const std::string& src, bool run_trim = true) {
  PipelineOptions opts;
  opts.run_trim = run_trim;
  return extract_dfg(src, opts);
}

NodeKind kind_of_node(const Digraph& g, NodeId id) {
  return static_cast<NodeKind>(g.node(id).kind);
}

int count_kind(const Digraph& g, NodeKind kind) {
  int count = 0;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (kind_of_node(g, static_cast<NodeId>(v)) == kind) ++count;
  }
  return count;
}

// --- basic structure ---------------------------------------------------------

TEST(Dfg, SimpleAssignProducesOperatorChain) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output y);\n"
      "  assign y = a & b;\n"
      "endmodule\n");
  // Nodes: y (output), a, b (inputs), and-operator.
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(count_kind(g, NodeKind::kInput), 2);
  EXPECT_EQ(count_kind(g, NodeKind::kOutput), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kAnd), 1);

  // Output is a root (no in-edges), inputs are leaves (no out-edges).
  const NodeId y = g.find_by_name("y");
  ASSERT_NE(y, graph::kInvalidNode);
  EXPECT_EQ(g.in_degree(y), 0u);
  EXPECT_EQ(g.out_degree(y), 1u);
  const NodeId a = g.find_by_name("a");
  EXPECT_EQ(g.out_degree(a), 0u);
}

TEST(Dfg, OutputsAreRootsInputsAreLeaves) {
  const Digraph g = dfg_of(
      "module m (input a, input b, input c, output x, output z);\n"
      "  assign x = (a + b) * c;\n"
      "  assign z = a - c;\n"
      "endmodule\n");
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const auto id = static_cast<NodeId>(v);
    if (kind_of_node(g, id) == NodeKind::kOutput) {
      EXPECT_EQ(g.in_degree(id), 0u) << g.node(id).name;
    }
    if (kind_of_node(g, id) == NodeKind::kInput) {
      EXPECT_EQ(g.out_degree(id), 0u) << g.node(id).name;
    }
  }
}

TEST(Dfg, SharedSignalNodesMergeTrees) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output x, output y);\n"
      "  wire t;\n"
      "  assign t = a ^ b;\n"
      "  assign x = t & a;\n"
      "  assign y = t | b;\n"
      "endmodule\n");
  // Exactly one node for t, consumed by both output trees.
  const NodeId t = g.find_by_name("t");
  ASSERT_NE(t, graph::kInvalidNode);
  EXPECT_EQ(g.in_degree(t), 2u);   // and-op and or-op reference t
  EXPECT_EQ(g.out_degree(t), 1u);  // driven by xor
}

TEST(Dfg, ConstantsSharedPerLiteral) {
  const Digraph g = dfg_of(
      "module m (input [7:0] a, output [7:0] x, output [7:0] y);\n"
      "  assign x = a + 8'h01;\n"
      "  assign y = a - 8'h01;\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kConstant), 1);
}

TEST(Dfg, GatePrimitivesBecomeOperatorNodes) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output y);\n"
      "  wire t1, t2;\n"
      "  xor (t1, a, b);\n"
      "  and (t2, a, b);\n"
      "  or (y, t1, t2);\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kXor), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kAnd), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kOr), 1);
}

TEST(Dfg, NotAndBufGatesMultipleOutputs) {
  const Digraph g = dfg_of(
      "module m (input a, output x, output y);\n"
      "  not (x, y0, a);\n"  // two outputs driven by one input
      "  buf (y, y0);\n"
      "endmodule\n");
  EXPECT_GE(count_kind(g, NodeKind::kNot), 1);
  EXPECT_GE(count_kind(g, NodeKind::kBuf), 1);
}

// --- procedural semantics ------------------------------------------------------

TEST(Dfg, IfBecomesMux) {
  const Digraph g = dfg_of(
      "module m (input s, input a, input b, output reg y);\n"
      "  always @(*) begin\n"
      "    if (s) y = a;\n"
      "    else y = b;\n"
      "  end\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kMux), 1);
  // Mux feeds from s, a, b.
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (kind_of_node(g, static_cast<NodeId>(v)) == NodeKind::kMux) {
      EXPECT_EQ(g.out_degree(static_cast<NodeId>(v)), 3u);
    }
  }
}

TEST(Dfg, IfWithoutElseHoldsPreviousValue) {
  const Digraph g = dfg_of(
      "module m (input clk, input en, input d, output reg q);\n"
      "  always @(posedge clk) begin\n"
      "    if (en) q <= d;\n"
      "  end\n"
      "endmodule\n");
  // q depends on itself through the mux else-branch (register feedback).
  const NodeId q = g.find_by_name("q");
  ASSERT_NE(q, graph::kInvalidNode);
  const auto reachable =
      graph::reachable(g, {q}, graph::Direction::kForward);
  EXPECT_TRUE(reachable[static_cast<std::size_t>(q)]);
  bool q_in_own_tree = false;
  for (NodeId u : g.in_neighbors(q)) {
    (void)u;
    q_in_own_tree = true;  // something references q
  }
  EXPECT_TRUE(q_in_own_tree);
}

TEST(Dfg, RegisterKindForEdgeTriggered) {
  const Digraph g = dfg_of(
      "module m (input clk, input d, output y);\n"
      "  reg st;\n"
      "  always @(posedge clk) st <= d;\n"
      "  assign y = st;\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kRegister), 1);
}

TEST(Dfg, BlockingAssignSubstitutesWithinBlock) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output reg y);\n"
      "  reg t;\n"
      "  always @(*) begin\n"
      "    t = a & b;\n"
      "    y = t | a;\n"
      "  end\n"
      "endmodule\n");
  // y's tree must contain the AND through substitution.
  const NodeId y = g.find_by_name("y");
  const auto fwd = graph::reachable(g, {y}, graph::Direction::kForward);
  bool saw_and = false;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    if (fwd[v] &&
        kind_of_node(g, static_cast<NodeId>(v)) == NodeKind::kAnd) {
      saw_and = true;
    }
  }
  EXPECT_TRUE(saw_and);
}

TEST(Dfg, CaseBecomesMuxChainWithEq) {
  const Digraph g = dfg_of(
      "module m (input [1:0] s, input a, input b, input c, output reg y);\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      2'b00: y = a;\n"
      "      2'b01: y = b;\n"
      "      default: y = c;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kMux), 2);
  EXPECT_EQ(count_kind(g, NodeKind::kEq), 2);
}

TEST(Dfg, MultiLabelCaseUsesLogOr) {
  const Digraph g = dfg_of(
      "module m (input [1:0] s, input a, input b, output reg y);\n"
      "  always @(*) begin\n"
      "    case (s)\n"
      "      2'b00, 2'b11: y = a;\n"
      "      default: y = b;\n"
      "    endcase\n"
      "  end\n"
      "endmodule\n");
  EXPECT_EQ(count_kind(g, NodeKind::kLogOr), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kEq), 2);
}

TEST(Dfg, NonblockingReadsPreBlockValues) {
  // Swap idiom: both registers must read the *old* value of the other.
  const Digraph g = dfg_of(
      "module m (input clk, output reg a, output reg b);\n"
      "  always @(posedge clk) begin\n"
      "    a <= b;\n"
      "    b <= a;\n"
      "  end\n"
      "endmodule\n");
  const NodeId a = g.find_by_name("a");
  const NodeId b = g.find_by_name("b");
  ASSERT_NE(a, graph::kInvalidNode);
  ASSERT_NE(b, graph::kInvalidNode);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_TRUE(g.has_edge(b, a));
}

TEST(Dfg, PartialBitAssignsMergeDependencies) {
  const Digraph g = dfg_of(
      "module m (input clk, input fb, output reg [1:0] r);\n"
      "  always @(posedge clk) begin\n"
      "    r[1] <= r[0];\n"
      "    r[0] <= fb;\n"
      "  end\n"
      "endmodule\n");
  const NodeId r = g.find_by_name("r");
  ASSERT_NE(r, graph::kInvalidNode);
  // r must depend (transitively) on both fb and itself.
  const auto fwd = graph::reachable(g, {r}, graph::Direction::kForward);
  const NodeId fb = g.find_by_name("fb");
  EXPECT_TRUE(fwd[static_cast<std::size_t>(fb)]);
}

// --- shared symbolic values ----------------------------------------------------

/// A combinational block of `n` statements `if (c[i]) x = x + 1;`. Each
/// statement's value of x is a mux over the previous one on both arms,
/// so the unfolded tree doubles per statement.
std::vector<SignalDriver> if_chain_drivers(int n) {
  std::string src = "module chain (input [" + std::to_string(n - 1) +
                    ":0] c, output reg [7:0] x);\n  always @(*) begin\n";
  for (int i = 0; i < n; ++i) {
    src += "    if (c[" + std::to_string(i) + "]) x = x + 1;\n";
  }
  src += "  end\nendmodule\n";
  const verilog::Design design = verilog::parse(src);
  return analyze_dataflow(verilog::elaborate(design, "chain"));
}

std::size_t distinct_exprs(const std::vector<SignalDriver>& drivers) {
  std::unordered_set<const verilog::Expr*> seen;
  std::vector<const verilog::Expr*> stack;
  for (const SignalDriver& d : drivers) stack.push_back(d.tree.get());
  while (!stack.empty()) {
    const verilog::Expr* e = stack.back();
    stack.pop_back();
    if (!seen.insert(e).second) continue;
    for (const verilog::ExprPtr& child : e->operands) {
      stack.push_back(child.get());
    }
  }
  return seen.size();
}

std::size_t unfolded_exprs(const verilog::Expr& e) {
  std::size_t n = 1;
  for (const verilog::ExprPtr& child : e.operands) n += unfolded_exprs(*child);
  return n;
}

TEST(Dataflow, IfChainValuesAreShared) {
  // n=8 first, so a copying analyzer fails here instead of running
  // for hours at n=30. The tree merge unfolds is the same either way:
  // 2^n growth, 1,786 nodes at n=8.
  const std::vector<SignalDriver> small = if_chain_drivers(8);
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(unfolded_exprs(*small[0].tree), 1786u);
  ASSERT_LE(distinct_exprs(small), std::size_t{8} * 8);

  constexpr int kStatements = 30;
  const std::vector<SignalDriver> drivers = if_chain_drivers(kStatements);
  ASSERT_EQ(drivers.size(), 1u);
  EXPECT_LE(distinct_exprs(drivers), std::size_t{8} * kStatements);
}

// --- trim ----------------------------------------------------------------------

TEST(Dfg, TrimRemovesDisconnectedSubgraphs) {
  // `c` feeds only dead logic, so the {c, xor, dead1} component contains
  // no output and is trimmed. (Dead logic sharing an input with live
  // logic stays weakly connected and is kept — trim is per component.)
  const std::string src =
      "module m (input a, input b, input c, output y);\n"
      "  wire dead1, dead2;\n"
      "  assign dead1 = c ^ c;\n"  // feeds nothing
      "  assign y = a & b;\n"
      "endmodule\n";
  const Digraph untrimmed = dfg_of(src, /*run_trim=*/false);
  const Digraph trimmed = dfg_of(src, /*run_trim=*/true);
  EXPECT_LT(trimmed.num_nodes(), untrimmed.num_nodes());
  EXPECT_EQ(graph::num_weak_components(trimmed), 1);
  EXPECT_EQ(trimmed.find_by_name("dead1"), graph::kInvalidNode);
}

TEST(Dfg, TrimKeepsEverythingWhenConnected) {
  const std::string src =
      "module m (input a, output y);\n  assign y = ~a;\nendmodule\n";
  const Digraph untrimmed = dfg_of(src, false);
  const Digraph trimmed = dfg_of(src, true);
  EXPECT_EQ(trimmed.num_nodes(), untrimmed.num_nodes());
}

TEST(Dfg, TrimStatsReported) {
  verilog::Design d = verilog::parse(
      "module m (input a, output y);\n"
      "  wire unused_net;\n"
      "  assign y = a;\n"
      "endmodule\n");
  const verilog::Module flat = verilog::elaborate(d, "m");
  auto drivers = analyze_dataflow(flat);
  Digraph g = merge_drivers(flat, drivers);
  const TrimStats stats = trim(g);
  EXPECT_GE(stats.removed_isolated, 1u);
}

// --- hierarchy ---------------------------------------------------------------

TEST(Dfg, HierarchicalDesignFlattensIntoOneGraph) {
  const Digraph g = dfg_of(
      "module ha (input x, input y, output s, output c);\n"
      "  assign s = x ^ y;\n  assign c = x & y;\nendmodule\n"
      "module fa (input a, input b, input cin, output sum, output cout);\n"
      "  wire s1, c1, c2;\n"
      "  ha u1 (.x(a), .y(b), .s(s1), .c(c1));\n"
      "  ha u2 (.x(s1), .y(cin), .s(sum), .c(c2));\n"
      "  assign cout = c1 | c2;\n"
      "endmodule\n");
  EXPECT_EQ(graph::num_weak_components(g), 1);
  EXPECT_EQ(count_kind(g, NodeKind::kXor), 2);
  EXPECT_EQ(count_kind(g, NodeKind::kAnd), 2);
  EXPECT_NE(g.find_by_name("u1.s"), graph::kInvalidNode);
}

// --- paper example: same design, different codes --------------------------------

TEST(Dfg, PaperAdderVariantsDifferInTopologyNotBehavior) {
  const std::string adder1 =
      "module ADDER (input Num1, input Num2, input Cin,\n"
      "              output reg Sum, output reg Cout);\n"
      "  always @(Num1, Num2, Cin) begin\n"
      "    Sum <= ((Num1 ^ Num2) ^ Cin);\n"
      "    Cout <= (((Num1 ^ Num2) && Cin) || (Num1 && Num2));\n"
      "  end\n"
      "endmodule\n";
  const std::string adder2 =
      "module ADDER (Num1, Num2, Cin, Sum, Cout);\n"
      "  input Num1, Num2, Cin;\n"
      "  output Sum, Cout;\n"
      "  wire t1, t2, t3;\n"
      "  xor (t1, Num1, Num2);\n"
      "  and (t2, Num1, Num2);\n"
      "  and (t3, t1, Cin);\n"
      "  xor (Sum, t1, Cin);\n"
      "  or (Cout, t3, t2);\n"
      "endmodule\n";
  const Digraph g1 = dfg_of(adder1);
  const Digraph g2 = dfg_of(adder2);
  // Different topologies (the research challenge §I-B)...
  EXPECT_NE(graph::structural_hash(g1), graph::structural_hash(g2));
  // ...but the same signal interface and comparable operator content.
  EXPECT_EQ(count_kind(g1, NodeKind::kInput), 3);
  EXPECT_EQ(count_kind(g2, NodeKind::kInput), 3);
  EXPECT_EQ(count_kind(g1, NodeKind::kOutput), 2);
  EXPECT_EQ(count_kind(g2, NodeKind::kOutput), 2);
  EXPECT_GE(count_kind(g2, NodeKind::kXor), 2);
}

// --- summaries -----------------------------------------------------------------

TEST(Dfg, SummarizeCounts) {
  const Digraph g = dfg_of(
      "module m (input a, input b, output y);\n"
      "  assign y = a + b;\n"
      "endmodule\n");
  const DfgSummary s = summarize(g);
  EXPECT_EQ(s.num_nodes, 4u);
  EXPECT_EQ(s.num_inputs, 2u);
  EXPECT_EQ(s.num_outputs, 1u);
  EXPECT_EQ(s.num_operators, 1u);
}

/// FNV-1a over node names and kinds in id order, then the edge list.
std::uint64_t dfg_digest(const Digraph& g) {
  std::uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    const graph::Node& node = g.node(static_cast<NodeId>(v));
    mix(node.name);
    mix(std::string(1, '\0') + std::to_string(node.kind) + ";");
  }
  for (const auto& [src, dst] : g.edges()) {
    mix(std::to_string(src) + ">" + std::to_string(dst) + ";");
  }
  return h;
}

TEST(Dfg, BundledDesignsKeepTheirGraphs) {
  std::vector<data::CorpusItem> designs = data::build_rtl_corpus();
  for (data::CorpusItem& item : data::build_netlist_corpus()) {
    designs.push_back(std::move(item));
  }
  for (data::CorpusItem& item : data::build_iscas_originals()) {
    designs.push_back(std::move(item));
  }
  ASSERT_EQ(designs.size(), std::size(kGoldenDfgs));
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const GoldenDfg& golden = kGoldenDfgs[i];
    SCOPED_TRACE(golden.name);
    ASSERT_EQ(designs[i].name, golden.name);
    const Digraph g = extract_dfg(designs[i].verilog);
    EXPECT_EQ(g.num_nodes(), golden.nodes);
    EXPECT_EQ(g.num_edges(), golden.edges);
    EXPECT_EQ(dfg_digest(g), golden.digest);
  }
}

TEST(Dfg, NodeKindVocabularyStable) {
  // The one-hot featurizer depends on this count; changing it invalidates
  // saved models, so pin it.
  EXPECT_EQ(kNodeKindCount, 43);
  EXPECT_TRUE(is_signal_kind(NodeKind::kInput));
  EXPECT_TRUE(is_signal_kind(NodeKind::kConstant));
  EXPECT_FALSE(is_signal_kind(NodeKind::kAdd));
  EXPECT_TRUE(is_operator_kind(NodeKind::kMux));
}

}  // namespace
}  // namespace gnn4ip::dfg
