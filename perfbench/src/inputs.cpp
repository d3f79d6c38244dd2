#include "inputs.h"

#include <algorithm>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "audit/pipeline.h"
#include "core/gnn4ip.h"
#include "data/corpus.h"
#include "data/rtl_designs.h"
#include "train/dataset.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using gnn4ip::util::Rng;

// Stream shape. The benchmark's own constants, not knobs.
constexpr std::size_t kPoolRounds = 40;     // distinct rtl_audit rounds
constexpr std::size_t kIscasEvery = 8;      // rounds per ISCAS obfuscation
constexpr std::size_t kRtlWindow = 16;      // rtl_audit unpinned residents
constexpr std::size_t kLibraryCopies = 4;   // resident rows per design
constexpr std::size_t kPoolPerFamily = 4;   // screen submission pool
constexpr std::size_t kReadEvery = 5;       // one read per five ops
constexpr std::size_t kHoldOutEvery = 4;    // one family in four is held out
// ISCAS-85 originals in the streams; c6288 (a 16x16 multiplier, ~5.7k
// DFG nodes, ~60 ms per design) would be one op costing as much as a
// hundred others, so it stays out.
constexpr const char* kIscas[] = {"c432", "c499", "c880", "c1355", "c1908"};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), 0);
  rng.shuffle(p);
  return p;
}

/// Families in RTL-then-netlist order; one in kHoldOutEvery never enters
/// the library, so its submissions are the streams' true negatives.
bool held_out(std::size_t family_index) {
  return family_index % kHoldOutEvery == kHoldOutEvery - 1;
}

std::vector<gnn4ip::data::IscasBenchmark> stream_iscas() {
  std::vector<gnn4ip::data::IscasBenchmark> out;
  for (auto& b : gnn4ip::data::iscas_benchmarks()) {
    if (std::find(std::begin(kIscas), std::end(kIscas), b.name) !=
        std::end(kIscas)) {
      out.push_back(std::move(b));
    }
  }
  return out;
}

/// Compile designs on `threads` workers; a design the front end rejects
/// is a benchmark bug, not a measurement.
std::vector<gnn4ip::gnn::GraphTensors> compile_all(
    const std::vector<std::string>& sources, std::size_t threads) {
  const gnn4ip::audit::Pipeline pipeline;
  std::vector<gnn4ip::audit::CompileResult> compiled =
      pipeline.compile_batch(sources, threads);
  std::vector<gnn4ip::gnn::GraphTensors> out;
  out.reserve(compiled.size());
  for (auto& c : compiled) {
    if (!c.ok) {
      throw std::runtime_error("generated design rejected: " +
                               c.error.to_string());
    }
    out.push_back(std::move(c.design.tensors));
  }
  return out;
}

}  // namespace

Trained train_model(std::size_t threads) {
  gnn4ip::data::RtlCorpusOptions rtl;
  rtl.instances_per_family = 3;
  rtl.seed = 11;
  gnn4ip::data::NetlistCorpusOptions netlist;
  netlist.instances_per_family = 3;
  netlist.seed = 13;
  netlist.include_iscas = false;
  std::vector<gnn4ip::data::CorpusItem> items =
      gnn4ip::data::build_rtl_corpus(rtl);
  std::vector<gnn4ip::data::CorpusItem> nl =
      gnn4ip::data::build_netlist_corpus(netlist);
  items.insert(items.end(), nl.begin(), nl.end());

  gnn4ip::gnn::Hw2VecConfig config;
  config.seed = 5;
  Trained t{gnn4ip::gnn::Hw2Vec(config), 0.5F};
  gnn4ip::train::PairDataset::PairOptions pairs;
  pairs.max_negative_ratio = 3.49;
  gnn4ip::train::PairDataset dataset = gnn4ip::train::PairDataset::all_pairs(
      gnn4ip::make_graph_entries(items), pairs);
  gnn4ip::train::TrainConfig tc;
  tc.epochs = 20;
  tc.learning_rate = 3e-3F;
  tc.num_threads = threads;
  tc.seed = 7;
  gnn4ip::train::Trainer trainer(t.model, dataset, tc);
  for (int e = 0; e < tc.epochs; ++e) (void)trainer.train_epoch();
  t.delta = trainer.evaluate().delta;
  return t;
}

std::string if_chain_design(int n, std::uint64_t seed) {
  Rng rng(mix(seed, 0xC4A1));
  std::string v = "module if_chain(input [7:0] c, input [7:0] a,\n";
  v += "                output [7:0] y);\n  reg [7:0] x;\n";
  v += "  always @(*) begin\n    x = a;\n";
  for (int i = 0; i < n; ++i) {
    v += "    if (c[" + std::to_string(i % 8) + "]) x = x + " +
         std::to_string(1 + rng.next_below(7)) + ";\n";
  }
  v += "  end\n  assign y = x;\nendmodule\n";
  return v;
}

RtlWorkload make_rtl_workload(std::uint64_t seed, std::size_t warmup_ops,
                              std::size_t timed_ops) {
  namespace data = gnn4ip::data;
  RtlWorkload w;
  Rng rng(mix(seed, 1));
  const std::vector<data::IscasBenchmark> iscas = stream_iscas();
  const std::vector<std::string> netlists = data::netlist_family_names();
  std::vector<data::Netlist> bases;
  for (const std::string& n : netlists) {
    bases.push_back(data::build_netlist_family(n));
  }

  const std::size_t num_rtl = data::rtl_families().size();
  for (std::size_t f = 0; f < num_rtl; ++f) {
    if (held_out(f)) continue;
    const data::RtlFamily& fam = data::rtl_families()[f];
    w.library.push_back(
        {"lib:" + fam.name, fam.name, fam.generate({0, rng.next_u64()})});
  }
  for (std::size_t i = 0; i < netlists.size(); ++i) {
    if (held_out(num_rtl + i)) continue;
    w.library.push_back(
        {"lib:" + netlists[i], netlists[i], bases[i].to_verilog()});
  }
  for (const data::IscasBenchmark& b : iscas) {
    w.library.push_back({"lib:" + b.name, b.name, b.netlist.to_verilog()});
  }

  // Pool: kPoolRounds rounds, each one held-out instance per RTL and
  // netlist family and one sequential-if chain (lengths 1..8, a seeded
  // permutation per eight rounds); every kIscasEvery-th round adds one
  // ISCAS obfuscation, the benchmarks in rotation. ISCAS ops are the
  // heaviest (c1355 ~20 ms), so at one in ~370 ops they set the p99.9
  // rather than the p99; at one per round the p99 sat on the cliff
  // between the c499 and c1908 groups, where one preempted op moved it.
  std::vector<std::size_t> chain_lengths;
  while (chain_lengths.size() < kPoolRounds) {
    for (std::size_t p : permutation(8, rng)) chain_lengths.push_back(p + 1);
  }
  std::vector<std::pair<std::size_t, std::size_t>> rounds;  // first, size
  for (std::size_t r = 0; r < kPoolRounds; ++r) {
    const std::size_t first = w.pool.size();
    for (const data::RtlFamily& f : data::rtl_families()) {
      const int style = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(f.num_styles)));
      w.pool.push_back({"", f.name, f.generate({style, rng.next_u64()})});
    }
    for (std::size_t i = 0; i < netlists.size(); ++i) {
      Rng child = rng.fork();
      w.pool.push_back(
          {"", netlists[i], data::restructure(bases[i], child).to_verilog()});
    }
    if (r % kIscasEvery == 0) {
      const data::IscasBenchmark& b = iscas[(r / kIscasEvery) % iscas.size()];
      Rng child = rng.fork();
      w.pool.push_back(
          {"", b.name, data::obfuscate(b.netlist, {}, child).to_verilog()});
    }
    w.pool.push_back({"", "if_chain",
                      if_chain_design(static_cast<int>(chain_lengths[r]),
                                      rng.next_u64())});
    rounds.emplace_back(first, w.pool.size() - first);
  }

  // Ground truth: the library is pinned; submissions stay resident for
  // kRtlWindow later admissions (LRU over unpinned rows, names unique).
  // A held-out family (and if_chain) is positive only while its previous
  // instance, about one round back, is still in that window.
  w.max_resident = w.library.size() + kRtlWindow;
  std::unordered_map<std::string, int> resident;
  for (const Design& d : w.library) ++resident[d.family];
  std::deque<std::string> window;
  for (std::size_t k = 0; w.ops.size() < w.warmup + timed_ops; ++k) {
    if (w.warmup == 0 && w.ops.size() >= warmup_ops) w.warmup = w.ops.size();
    const auto [first, size] = rounds[k % kPoolRounds];
    for (std::size_t j : permutation(size, rng)) {
      Op op;
      op.input = first + j;
      op.family = w.pool[op.input].family;
      op.name = "op" + std::to_string(w.ops.size()) + ":" + op.family;
      op.truth = resident[op.family] > 0;
      ++resident[op.family];
      window.push_back(op.family);
      if (window.size() > kRtlWindow) {
        --resident[window.front()];
        window.pop_front();
      }
      w.ops.push_back(std::move(op));
    }
  }
  return w;
}

ScreenWorkload make_screen_workload(std::uint64_t seed,
                                    std::size_t warmup_ops,
                                    std::size_t timed_ops,
                                    std::size_t library_rows,
                                    std::size_t threads) {
  namespace data = gnn4ip::data;
  ScreenWorkload w;
  Rng rng(mix(seed, 2));
  const std::vector<std::string> netlists = data::netlist_family_names();
  std::vector<data::Netlist> bases;
  for (const std::string& n : netlists) {
    bases.push_back(data::build_netlist_family(n));
  }
  // Every family, and a generator for one seeded held-out instance.
  std::vector<std::string> families;
  for (const data::RtlFamily& f : data::rtl_families()) {
    families.push_back(f.name);
  }
  families.insert(families.end(), netlists.begin(), netlists.end());
  const std::size_t num_rtl = data::rtl_families().size();
  const auto instance = [&](std::size_t f) {
    if (f < num_rtl) {
      const data::RtlFamily& fam = data::rtl_families()[f];
      const int style = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(fam.num_styles)));
      return fam.generate({style, rng.next_u64()});
    }
    Rng child = rng.fork();
    return data::restructure(bases[f - num_rtl], child).to_verilog();
  };
  std::vector<std::size_t> in_library;
  for (std::size_t f = 0; f < families.size(); ++f) {
    if (!held_out(f)) in_library.push_back(f);
  }

  const std::size_t designs =
      std::max(in_library.size(), library_rows / kLibraryCopies);
  std::vector<std::string> sources;
  for (std::size_t j = 0; j < designs; ++j) {
    const std::size_t f = in_library[j % in_library.size()];
    sources.push_back(instance(f));
    w.library_families.push_back(families[f]);
  }
  w.library_tensors = compile_all(sources, threads);
  for (std::size_t t = 0; t < library_rows; ++t) {
    const std::size_t d = t % designs;
    w.rows.push_back({"lib" + std::to_string(t) + ":" + w.library_families[d],
                      d, t < in_library.size()});
  }

  // Submission pool: kPoolPerFamily instances of every family. Designs of
  // held-out families are probes, all submitted under one name, so each
  // probe replaces the previous one; the replaced row is a tombstone when
  // the probe is screened, so no relative of a probe is ever resident.
  sources.clear();
  std::vector<std::size_t> regular;
  std::vector<std::size_t> probes;
  for (std::size_t s = 0; s < kPoolPerFamily * families.size(); ++s) {
    const std::size_t f = s % families.size();
    (held_out(f) ? probes : regular).push_back(s);
    sources.push_back(instance(f));
    w.pool_families.push_back(families[f]);
  }
  w.pool = compile_all(sources, threads);

  // Residency: pinned rows stay; unpinned rows and submissions leave in
  // admission order (LRU by admission; a replaced name moves to the back)
  // once live rows exceed max_resident.
  w.max_resident = library_rows;
  std::unordered_map<std::string, int> resident;
  std::vector<std::string> pinned;
  std::deque<std::pair<std::string, std::string>> unpinned;  // name, family
  for (const ScreenWorkload::Row& row : w.rows) {
    const std::string& family = w.library_families[row.design];
    ++resident[family];
    if (row.pinned) {
      pinned.push_back(row.name);
    } else {
      unpinned.emplace_back(row.name, family);
    }
  }
  const std::size_t warmup_blocks = (warmup_ops + kReadEvery - 1) / kReadEvery;
  const std::size_t blocks =
      warmup_blocks + (timed_ops + kReadEvery - 1) / kReadEvery;
  w.warmup = warmup_blocks * kReadEvery;
  // Each (shuffled) block: one read, one probe, the rest regular submits.
  struct Cycle {
    const std::vector<std::size_t>& items;
    std::vector<std::size_t> order;
    std::size_t next = 0;
    std::size_t take(Rng& r) {
      if (next == order.size()) {
        order.clear();
        for (std::size_t p : permutation(items.size(), r)) {
          order.push_back(items[p]);
        }
        next = 0;
      }
      return order[next++];
    }
  };
  Cycle regular_cycle{regular, {}};
  Cycle probe_cycle{probes, {}};
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::vector<std::size_t> slots = permutation(kReadEvery, rng);
    for (std::size_t i = 0; i < kReadEvery; ++i) {
      Op op;
      if (slots[i] == 0) {
        op.kind = Op::Kind::kRead;
        const std::size_t r = rng.next_below(pinned.size() + unpinned.size());
        op.name = r < pinned.size() ? pinned[r]
                                    : unpinned[r - pinned.size()].first;
        w.ops.push_back(std::move(op));
        continue;
      }
      if (slots[i] == 1) {
        op.input = probe_cycle.take(rng);
        op.name = kProbeName;
        const auto old = std::find_if(
            unpinned.rbegin(), unpinned.rend(),
            [](const auto& e) { return e.first == kProbeName; });
        if (old != unpinned.rend()) {
          --resident[old->second];
          unpinned.erase(std::next(old).base());
        }
      } else {
        op.input = regular_cycle.take(rng);
        op.name = "sub" + std::to_string(w.ops.size()) + ":" +
                  w.pool_families[op.input];
      }
      op.family = w.pool_families[op.input];
      op.truth = resident[op.family] > 0;
      ++resident[op.family];
      unpinned.emplace_back(op.name, op.family);
      while (pinned.size() + unpinned.size() > w.max_resident &&
             !unpinned.empty()) {
        --resident[unpinned.front().second];
        unpinned.pop_front();
      }
      w.ops.push_back(std::move(op));
    }
  }
  return w;
}

}  // namespace perfbench
