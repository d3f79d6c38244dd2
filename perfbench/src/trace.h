// Outside-in tracing for the RTL-to-verdict benchmark.
//
// Spans are recorded by the benchmark around its own calls into each
// module's public functions (verilog::preprocess, dfg::merge_drivers,
// gnn::featurize, AuditService::screen, ...) and, through TracedBackend,
// around the calls AuditService makes into its core::CorpusBackend.
// Nothing inside src/ is instrumented. All spans are opened on the
// benchmark's single client thread, so the recorder takes no locks; the
// spans stay in memory and are written out once the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/corpus_backend.h"

namespace perfbench {

enum class Stage : std::uint8_t {
  kOp,          // one client operation, submit/top_k to report
  kPreprocess,  // verilog::preprocess
  kParse,       // verilog::lex + verilog::parse_tokens
  kElaborate,   // verilog::infer_top_module + verilog::elaborate
  kDataflow,    // dfg::analyze_dataflow
  kMerge,       // dfg::merge_drivers
  kTrim,        // dfg::trim
  kFeaturize,   // gnn::featurize
  kScreen,      // AuditService::screen (embed + commit)
  kTopK,        // AuditService::top_k
  kEmbed,       // CorpusBackend::fan_out inside screen(): the embed phase
  kCoreScreen,  // CorpusBackend::screen_new_rows
  kCoreTopK,    // CorpusBackend::top_k
  kAdd,         // CorpusBackend::add
  kRemove,      // CorpusBackend::remove (an eviction)
  kCompact,     // CorpusBackend::compact
  kCount,
};

[[nodiscard]] const char* stage_name(Stage s);

struct Span {
  Stage stage = Stage::kOp;
  std::uint32_t op = 0;
  std::int32_t parent = -1;  // index into Tracer::spans(), -1 for roots
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Work counted at the same boundaries the spans sit on.
struct Counters {
  std::uint64_t designs = 0;      // designs run through the front end
  std::uint64_t rejects = 0;      // designs the front end refused
  std::uint64_t tokens = 0;       // verilog::lex tokens
  std::uint64_t expr_nodes = 0;   // nodes in analyze_dataflow driver trees
  std::uint64_t dfg_nodes = 0;    // merge_drivers output nodes
  std::uint64_t trimmed = 0;      // nodes dfg::trim removed
  std::uint64_t graph_nodes = 0;  // GraphTensors::num_nodes of embedded designs
  std::uint64_t embedded = 0;     // designs whose tensors reached the service
  std::uint64_t screens = 0;      // screen_new_rows calls
  std::uint64_t scanned = 0;
  std::uint64_t rescored = 0;
  std::uint64_t flagged = 0;
  std::uint64_t removes = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_op(std::uint32_t op) { op_ = op; }

  /// Open a span as a child of the innermost open span; returns its id.
  std::int32_t begin(Stage stage) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({stage, op_, open_.empty() ? -1 : open_.back(), now(), 0});
    open_.push_back(id);
    return id;
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now();
    open_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& t, Stage s) : tracer_(t), id_(t.begin(s)) {}
    ~Scope() { tracer_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t id_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] Counters& counters() { return counters_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Zero the counters at the start of the timed phase, so per-layer
  /// figures cover the timed ops only.
  void mark_timed_start() { counters_ = {}; }

  /// One CSV line per span: op,stage,parent,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  static std::int64_t now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::uint32_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  Counters counters_;
};

/// CorpusBackend decorator: forwards every call to `inner` and records a
/// span around the ones a commit or a read spends its time in.
class TracedBackend final : public gnn4ip::core::CorpusBackend {
 public:
  TracedBackend(std::unique_ptr<gnn4ip::core::CorpusBackend> inner,
                Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::size_t add(std::string name,
                  const gnn4ip::tensor::Matrix& embedding) override;
  void remove(std::size_t i) override;
  std::vector<std::size_t> compact() override;
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] std::size_t dim() const override { return inner_->dim(); }
  [[nodiscard]] std::size_t live_count() const override {
    return inner_->live_count();
  }
  [[nodiscard]] bool live(std::size_t i) const override {
    return inner_->live(i);
  }
  [[nodiscard]] const std::string& name(std::size_t i) const override {
    return inner_->name(i);
  }
  [[nodiscard]] std::size_t num_shards() const override {
    return inner_->num_shards();
  }
  [[nodiscard]] std::size_t shard_of(std::size_t i) const override {
    return inner_->shard_of(i);
  }
  [[nodiscard]] std::size_t shard_live_count(std::size_t s) const override {
    return inner_->shard_live_count(s);
  }
  [[nodiscard]] std::size_t shard_budget() const override {
    return inner_->shard_budget();
  }
  [[nodiscard]] float score(std::size_t i, std::size_t j) const override {
    return inner_->score(i, j);
  }
  [[nodiscard]] std::vector<gnn4ip::core::ScreenRow> screen_new_rows(
      std::size_t first_new, float delta) const override;
  [[nodiscard]] std::vector<gnn4ip::core::PairScore> top_k(
      std::size_t i, std::size_t k) const override;
  [[nodiscard]] std::vector<gnn4ip::core::PairScore> flag(
      float delta) const override {
    return inner_->flag(delta);
  }
  void save(const std::string& dir,
            std::string_view model_fingerprint) const override {
    inner_->save(dir, model_fingerprint);
  }
  [[nodiscard]] std::unique_ptr<gnn4ip::core::CorpusBackend> restored(
      const std::string& dir,
      std::string_view expected_fingerprint) const override {
    return inner_->restored(dir, expected_fingerprint);
  }
  void fan_out(std::size_t count,
               const std::function<void(std::size_t)>& fn) const override;

 private:
  std::unique_ptr<gnn4ip::core::CorpusBackend> inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
