#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kOp: return "op";
    case Stage::kPreprocess: return "verilog.preprocess";
    case Stage::kParse: return "verilog.parse";
    case Stage::kElaborate: return "verilog.elaborate";
    case Stage::kDataflow: return "dfg.dataflow";
    case Stage::kMerge: return "dfg.merge";
    case Stage::kTrim: return "dfg.trim";
    case Stage::kFeaturize: return "gnn.featurize";
    case Stage::kScreen: return "audit.screen";
    case Stage::kTopK: return "audit.top_k";
    case Stage::kEmbed: return "gnn.embed";
    case Stage::kCoreScreen: return "core.screen_new_rows";
    case Stage::kCoreTopK: return "core.top_k";
    case Stage::kAdd: return "core.add";
    case Stage::kRemove: return "core.remove";
    case Stage::kCompact: return "core.compact";
    case Stage::kCount: break;
  }
  return "?";
}

void Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "op,stage,parent,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%s,%d,%lld,%lld\n", s.op, stage_name(s.stage),
                 s.parent, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::size_t TracedBackend::add(std::string name,
                               const gnn4ip::tensor::Matrix& embedding) {
  Tracer::Scope span(tracer_, Stage::kAdd);
  return inner_->add(std::move(name), embedding);
}

void TracedBackend::remove(std::size_t i) {
  Tracer::Scope span(tracer_, Stage::kRemove);
  ++tracer_.counters().removes;
  inner_->remove(i);
}

std::vector<std::size_t> TracedBackend::compact() {
  Tracer::Scope span(tracer_, Stage::kCompact);
  return inner_->compact();
}

std::vector<gnn4ip::core::ScreenRow> TracedBackend::screen_new_rows(
    std::size_t first_new, float delta) const {
  std::vector<gnn4ip::core::ScreenRow> rows;
  {
    Tracer::Scope span(tracer_, Stage::kCoreScreen);
    rows = inner_->screen_new_rows(first_new, delta);
  }
  Counters& c = tracer_.counters();
  for (const gnn4ip::core::ScreenRow& row : rows) {
    ++c.screens;
    c.scanned += row.scanned;
    c.rescored += row.rescored;
    c.flagged += row.flagged.size();
  }
  return rows;
}

std::vector<gnn4ip::core::PairScore> TracedBackend::top_k(
    std::size_t i, std::size_t k) const {
  Tracer::Scope span(tracer_, Stage::kCoreTopK);
  return inner_->top_k(i, k);
}

void TracedBackend::fan_out(std::size_t count,
                            const std::function<void(std::size_t)>& fn) const {
  Tracer::Scope span(tracer_, Stage::kEmbed);
  inner_->fan_out(count, fn);
}

}  // namespace perfbench
