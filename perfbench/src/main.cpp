// rtl_verdict_bench — the RTL-to-verdict benchmark program.
//
//   rtl_verdict_bench --workload rtl_audit|resident_screen|remote_screen
//                     --seed N --seconds S --trace 0|1
//                     --shardd PATH --state-dir DIR
//                     [--ops N] [--library-rows N] [--op-timeout-ms N]
//                     [--kill-server-at OP] [--stop-server-at OP]
//
// Each run does a fixed amount of work: the op count is S times the
// workload's nominal rate (or --ops), and the ops are the same seeded
// sequence every time. A warm-up prefix of that sequence runs before
// timing starts; the set-up it uses (model training, input generation,
// library fill, server spawn) happens before it, and setup_s is the median
// of five set-ups, three before the timed phase and two after. One client
// thread drives a closed loop; the corpus uses at most two worker threads.
// The end-to-end timings are scaled to the reference host speed by a
// calibration kernel sampled between ops (see host_speed.h).
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// ops twice, untraced and traced, and prints the per-layer metrics from
// the traced replay plus the stage-share ledger. The last stdout line is
// one JSON object {correct, attempted, failed, metrics}. Any verdict
// digest mismatch is an error (exit 3, no result line).
#include <sched.h>
#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "audit/audit_service.h"
#include "core/sharded_corpus.h"
#include "dfg/dataflow.h"
#include "dfg/merge.h"
#include "dfg/trim.h"
#include "dist/dist_corpus.h"
#include "gnn/featurize.h"
#include "gnn/model_io.h"
#include "host_speed.h"
#include "inputs.h"
#include "shardd.h"
#include "trace.h"
#include "verilog/elaborate.h"
#include "verilog/parser.h"
#include "verilog/preprocess.h"
#include "verilog/token.h"

namespace perfbench {
namespace {

namespace audit = gnn4ip::audit;
namespace core = gnn4ip::core;
namespace gnn = gnn4ip::gnn;
using Clock = std::chrono::steady_clock;

enum class Workload { kRtlAudit, kResidentScreen, kRemoteScreen };

struct Args {
  Workload workload = Workload::kRtlAudit;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string shardd;
  std::string state_dir;
  std::size_t ops = 0;  // 0 = seconds x nominal rate
  std::size_t library_rows = 10000;
  unsigned op_timeout_ms = 10000;
  long kill_server_at = -1;
  long stop_server_at = -1;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "rtl_verdict_bench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    const auto number = [&] {
      char* end = nullptr;
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || v < 0) {
        usage("bad value for " + flag + ": " + value);
      }
      return v;
    };
    if (flag == "--workload") {
      have_workload = true;
      a.workload_name = value;
      if (value == "rtl_audit") {
        a.workload = Workload::kRtlAudit;
      } else if (value == "resident_screen") {
        a.workload = Workload::kResidentScreen;
      } else if (value == "remote_screen") {
        a.workload = Workload::kRemoteScreen;
      } else {
        usage("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = number();
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--shardd") {
      a.shardd = value;
    } else if (flag == "--state-dir") {
      a.state_dir = value;
    } else if (flag == "--ops") {
      a.ops = static_cast<std::size_t>(number());
    } else if (flag == "--library-rows") {
      a.library_rows = static_cast<std::size_t>(number());
    } else if (flag == "--op-timeout-ms") {
      a.op_timeout_ms = static_cast<unsigned>(number());
    } else if (flag == "--kill-server-at") {
      a.kill_server_at = static_cast<long>(number());
    } else if (flag == "--stop-server-at") {
      a.stop_server_at = static_cast<long>(number());
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.state_dir.empty()) usage("--state-dir is required");
  if (a.workload == Workload::kRemoteScreen && a.shardd.empty()) {
    usage("remote_screen needs --shardd");
  }
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------- digest

/// FNV-1a over the ordered verdict stream.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void verdict(const audit::Verdict& v) {
    str(v.matched);
    u64(v.corpus_index);
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v.similarity, sizeof bits);
    u64(bits);
  }
  void report(const audit::ScreenReport& r) {
    u64('S');
    str(r.submission.name);
    u64(r.submission.accepted ? 1 : 0);
    u64(r.verdicts.size());
    for (const audit::Verdict& v : r.verdicts) verdict(v);
    u64(r.best ? 1 : 0);
    if (r.best) verdict(*r.best);
  }
  void read(const std::string& name, const std::vector<audit::Verdict>& vs) {
    u64('R');
    str(name);
    u64(vs.size());
    for (const audit::Verdict& v : vs) verdict(v);
  }
  void failure(const std::string& name) {
    u64('F');
    str(name);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

// ------------------------------------------------------------- instances

/// Everything one run of the op stream needs. Members are destroyed in
/// reverse order: the service hangs up before its servers are reaped.
struct Instance {
  std::unique_ptr<ShardProcesses> servers;
  std::unique_ptr<audit::AuditService> service;
};

/// Hang up, then reap the servers.
void teardown(Instance& inst) {
  inst.service.reset();
  inst.servers.reset();
}

enum class Flavor {
  kMeasured,   // the workload's own configuration
  kReference,  // a differently configured corpus that must agree
};

struct Inputs {
  std::optional<RtlWorkload> rtl;
  std::optional<ScreenWorkload> screen;
  [[nodiscard]] const std::vector<Op>& ops() const {
    return rtl ? rtl->ops : screen->ops;
  }
  [[nodiscard]] std::size_t warmup() const {
    return rtl ? rtl->warmup : screen->warmup;
  }
};

/// Family of every library name; run_pass adds each submission's.
std::unordered_map<std::string, std::string> library_families(
    const Inputs& inputs) {
  std::unordered_map<std::string, std::string> family;
  if (inputs.rtl) {
    for (const Design& d : inputs.rtl->library) family[d.name] = d.family;
  } else {
    const ScreenWorkload& w = *inputs.screen;
    for (const ScreenWorkload::Row& row : w.rows) {
      family[row.name] = w.library_families[row.design];
    }
  }
  return family;
}

/// A verdict is right when it flags a design that has a resident relative
/// and its best match is of the design's own family, or when it flags
/// nothing for a design that has none. A model that flags nothing scores
/// the share of negatives; one that flags everything scores at most the
/// share of positives, and less the more often its best match is of
/// another family.
bool verdict_correct(
    const Op& op, const audit::ScreenReport& report,
    const std::unordered_map<std::string, std::string>& family) {
  const bool flagged = !report.verdicts.empty();
  if (!op.truth) return !flagged;
  if (!flagged || !report.best) return false;
  const auto it = family.find(report.best->matched);
  return it != family.end() && it->second == op.family;
}

gnn::GraphTensors fresh_copy(const gnn::GraphTensors& t) {
  gnn::GraphTensors copy = t;
  // A new design brings no memo of pooled adjacencies.
  copy.pooled_cache = std::make_shared<gnn::PooledAdjCache>();
  return copy;
}

Instance make_instance(const Args& args, const Trained& trained,
                       const Inputs& inputs, Flavor flavor, Tracer* tracer) {
  Instance inst;
  audit::AuditOptions options;
  options.scorer.delta = trained.delta;
  const bool rtl = args.workload == Workload::kRtlAudit;
  const bool remote =
      args.workload == Workload::kRemoteScreen && flavor == Flavor::kMeasured;
  if (rtl) {
    options.max_resident = inputs.rtl->max_resident;
    options.num_shards = flavor == Flavor::kMeasured ? 1 : 2;
    options.scorer.num_threads = 1;
    options.scorer.int8_prefilter = flavor == Flavor::kReference;
  } else {
    options.max_resident = inputs.screen->max_resident;
    options.num_shards = flavor == Flavor::kMeasured ? 2 : 1;
    options.scorer.num_threads = flavor == Flavor::kMeasured ? 2 : 1;
    options.scorer.int8_prefilter = flavor == Flavor::kMeasured;
  }

  gnn::Hw2Vec model = trained.model;
  std::unique_ptr<core::CorpusBackend> backend;
  if (remote) {
    inst.servers = std::make_unique<ShardProcesses>(args.shardd, 2, 5000);
    backend = gnn4ip::dist::DistCorpus::connect(
        inst.servers->endpoints(), gnn::model_fingerprint(model),
        options.scorer);
  } else {
    backend = std::make_unique<core::ShardedCorpus>(options.num_shards,
                                                   options.scorer);
  }
  if (tracer != nullptr && tracer->enabled()) {
    backend = std::make_unique<TracedBackend>(std::move(backend), *tracer);
  }
  inst.service = std::make_unique<audit::AuditService>(
      std::move(model), options, std::move(backend));

  audit::AuditService& service = *inst.service;
  if (rtl) {
    for (const Design& d : inputs.rtl->library) {
      if (!service.add_library(d.name, d.verilog).accepted) {
        throw std::runtime_error("library design rejected: " + d.name);
      }
    }
  } else {
    const ScreenWorkload& w = *inputs.screen;
    for (const ScreenWorkload::Row& row : w.rows) {
      if (!service.add_library(row.name, w.library_tensors[row.design])
               .accepted) {
        throw std::runtime_error("library row rejected: " + row.name);
      }
    }
    for (const ScreenWorkload::Row& row : w.rows) {
      if (!row.pinned) service.unpin(row.name);
    }
  }
  return inst;
}

// ---------------------------------------------------------------- watchdog

/// Bounds every remote op: when one runs past the timeout, every shard
/// server is killed, so the blocked op fails with a wire error instead
/// of hanging the run.
class Watchdog {
 public:
  Watchdog(const ShardProcesses& servers, unsigned timeout_ms)
      : servers_(servers),
        timeout_(std::chrono::milliseconds(timeout_ms)),
        thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void op_begin() { started_ns_.store(now_ns(), std::memory_order_relaxed); }
  void op_end() { started_ns_.store(0, std::memory_order_relaxed); }
  [[nodiscard]] bool fired() const { return fired_.load(); }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return stop_; })) {
      const std::int64_t started = started_ns_.load(std::memory_order_relaxed);
      if (started != 0 && !fired_.load() &&
          now_ns() - started >
              std::chrono::duration_cast<std::chrono::nanoseconds>(timeout_)
                  .count()) {
        std::fprintf(stderr,
                     "rtl_verdict_bench: op exceeded %lld ms; killing the "
                     "shard servers\n",
                     static_cast<long long>(timeout_.count()));
        servers_.kill_all();
        fired_.store(true);
      }
    }
  }

  const ShardProcesses& servers_;
  const std::chrono::milliseconds timeout_;
  std::atomic<std::int64_t> started_ns_{0};
  std::atomic<bool> fired_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after every member it reads
};

// ---------------------------------------------------------------- one pass

struct PassResult {
  std::vector<double> latency_ms;  // successful timed ops
  std::size_t attempted = 0;       // every op, warm-up included
  std::size_t failed = 0;
  std::size_t screened = 0;  // timed submissions that returned a report
  std::size_t agree = 0;     // ... whose verdict matched ground truth
  std::size_t negatives = 0;        // ... with no resident relative
  std::size_t agree_negatives = 0;  // ... that flagged nothing
  double wall_s = 0;         // timed phase, calibration left out
  double cpu_s = 0;          // process CPU in the timed phase, likewise
  double host_ms = 0;        // median calibration kernel time in it
  Digest digest;             // every op
  std::string prefix_digest;  // after the first check_ops ops
  // remote only: shard server and loopback counters over the timed phase
  ProcStats servers_before, servers_after;
  NetStats net_before, net_after;
  double frontend_rss_mb = 0;
};

ProcStats sum_stats(const Instance& inst) {
  ProcStats total;
  if (!inst.servers) return total;
  for (const pid_t pid : inst.servers->pids()) {
    const ProcStats s = read_proc_stats(pid);
    total.cpu_s += s.cpu_s;
    total.rss_mb += s.rss_mb;
    total.peak_rss_mb += s.peak_rss_mb;
  }
  return total;
}

/// Front end called module by module, as extract_dfg + featurize would,
/// with a span around each public function. Returns false when the
/// design is rejected (the same errors compile_rtl turns into a
/// Diagnostic).
bool compile_by_module(const std::string& source, Tracer& t,
                       gnn::GraphTensors& out,
                       std::vector<gnn4ip::dfg::SignalDriver>& drivers) {
  namespace verilog = gnn4ip::verilog;
  namespace dfg = gnn4ip::dfg;
  const dfg::PipelineOptions options;
  Counters& c = t.counters();
  ++c.designs;
  try {
    std::string pre;
    {
      Tracer::Scope s(t, Stage::kPreprocess);
      pre = verilog::preprocess(source, options.preprocess);
    }
    verilog::Design design;
    {
      Tracer::Scope s(t, Stage::kParse);
      std::vector<verilog::Token> tokens = verilog::lex(pre);
      c.tokens += tokens.size();
      design = verilog::parse_tokens(std::move(tokens));
    }
    verilog::Module flat;
    {
      Tracer::Scope s(t, Stage::kElaborate);
      flat = verilog::elaborate(design, verilog::infer_top_module(design));
    }
    {
      Tracer::Scope s(t, Stage::kDataflow);
      drivers = dfg::analyze_dataflow(flat);
    }
    gnn4ip::graph::Digraph g;
    {
      Tracer::Scope s(t, Stage::kMerge);
      g = dfg::merge_drivers(flat, drivers);
    }
    c.dfg_nodes += g.num_nodes();
    {
      Tracer::Scope s(t, Stage::kTrim);
      const dfg::TrimStats ts = dfg::trim(g, options.trim);
      c.trimmed +=
          ts.removed_isolated + ts.removed_disconnected + ts.removed_constants;
    }
    {
      Tracer::Scope s(t, Stage::kFeaturize);
      out = gnn::featurize(g);
    }
    return true;
  } catch (const std::runtime_error&) {
    // verilog::ParseError and the other user-input failures, exactly
    // what compile_rtl reports as a rejected design.
    ++c.rejects;
    return false;
  }
}

std::uint64_t count_expr_nodes(const gnn4ip::verilog::Expr& e) {
  std::uint64_t n = 1;
  for (const auto& child : e.operands) {
    if (child) n += count_expr_nodes(*child);
  }
  return n;
}

struct PassOptions {
  bool via_modules = false;  // rtl_audit: front end module by module
  std::size_t stop_after = 0;  // 0 = every op
  std::size_t check_ops = 0;
};

PassResult run_pass(const Args& args, const Inputs& inputs, Instance& inst,
                    Tracer& tracer, HostSpeed& speed, const PassOptions& po,
                    std::size_t warmup) {
  PassResult r;
  // Host-speed samples about every 10 ms of ops.
  const std::size_t calibrate_every = inputs.rtl ? 32 : 8;
  const std::vector<Op>& ops = inputs.ops();
  const std::size_t n = po.stop_after == 0 ? ops.size()
                                           : std::min(po.stop_after, ops.size());
  audit::AuditService& service = *inst.service;
  std::unique_ptr<Watchdog> watchdog;
  if (inst.servers) {
    watchdog = std::make_unique<Watchdog>(*inst.servers, args.op_timeout_ms);
  }
  r.latency_ms.reserve(n);
  std::unordered_map<std::string, std::string> family = library_families(inputs);
  Clock::time_point wall0;
  double cpu0 = 0;
  std::vector<gnn4ip::dfg::SignalDriver> drivers;

  for (std::size_t i = 0; i < n; ++i) {
    if (i == warmup) {
      tracer.mark_timed_start();
      r.servers_before = sum_stats(inst);
      if (inst.servers) r.net_before = read_net_stats();
      speed.clear();
      cpu0 = process_cpu_s();
      wall0 = Clock::now();
    }
    if (inst.servers && static_cast<long>(i) == args.kill_server_at) {
      inst.servers->signal(0, SIGKILL);
    }
    if (inst.servers && static_cast<long>(i) == args.stop_server_at) {
      inst.servers->signal(0, SIGSTOP);
    }
    const Op& op = ops[i];
    const bool timed = i >= warmup;
    // Inputs are copied before the clock starts.
    std::string source;
    gnn::GraphTensors tensors;
    std::size_t graph_nodes = 0;
    if (op.kind == Op::Kind::kSubmit) {
      if (inputs.rtl) {
        source = inputs.rtl->pool[op.input].verilog;
      } else {
        tensors = fresh_copy(inputs.screen->pool[op.input]);
        graph_nodes = tensors.num_nodes;
      }
    }
    bool ok = false;
    audit::ScreenReport report;
    std::vector<audit::Verdict> read;
    drivers.clear();
    tracer.set_op(static_cast<std::uint32_t>(i));
    if (watchdog) watchdog->op_begin();
    const Clock::time_point t0 = Clock::now();
    const std::int32_t span = tracer.begin(Stage::kOp);
    try {
      if (op.kind == Op::Kind::kRead) {
        Tracer::Scope s(tracer, Stage::kTopK);
        read = service.top_k(op.name, 10);
        ok = true;
      } else {
        bool compiled = true;
        if (po.via_modules) {
          compiled = compile_by_module(source, tracer, tensors, drivers);
          graph_nodes = tensors.num_nodes;
        }
        if (!compiled) {
          report.submission.name = op.name;  // rejected, nothing admitted
          ok = true;
        } else {
          const bool queued = inputs.rtl && !po.via_modules
                                  ? service.submit(op.name, std::move(source))
                                  : service.submit(op.name, std::move(tensors));
          if (queued) {
            std::vector<audit::ScreenReport> reports;
            {
              Tracer::Scope s(tracer, Stage::kScreen);
              reports = service.screen();
            }
            if (reports.size() == 1) {
              report = std::move(reports.front());
              ok = true;
            }
          }
        }
      }
    } catch (const std::exception& e) {
      if (r.failed == 0) {
        std::fprintf(stderr, "rtl_verdict_bench: op %zu failed: %s\n", i,
                     e.what());
      }
    }
    tracer.end(span);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (watchdog) watchdog->op_end();

    // Bookkeeping after the clock stops.
    ++r.attempted;
    if (!ok) {
      ++r.failed;
      r.digest.failure(op.name);
    } else if (op.kind == Op::Kind::kRead) {
      r.digest.read(op.name, read);
    } else {
      r.digest.report(report);
      for (const auto& d : drivers) {
        if (d.tree) tracer.counters().expr_nodes += count_expr_nodes(*d.tree);
      }
      if (report.submission.accepted) {
        ++tracer.counters().embedded;
        tracer.counters().graph_nodes += graph_nodes;
      }
    }
    if (timed && ok) {
      r.latency_ms.push_back(ms);
      if (op.kind == Op::Kind::kSubmit) {
        ++r.screened;
        const bool correct = verdict_correct(op, report, family);
        if (correct) ++r.agree;
        if (!op.truth) {
          ++r.negatives;
          if (correct) ++r.agree_negatives;
        }
      }
    }
    if (ok && report.submission.accepted) family[op.name] = op.family;
    if (i + 1 == po.check_ops) r.prefix_digest = r.digest.hex();
    if (timed && (i - warmup) % calibrate_every == 0) speed.sample();
  }
  if (n > warmup) {
    r.wall_s = seconds_since(wall0) - speed.spent_s();
    r.cpu_s = process_cpu_s() - cpu0 - speed.spent_s();
    r.host_ms = speed.median_ms();
    r.servers_after = sum_stats(inst);
    if (inst.servers) r.net_after = read_net_stats();
    r.frontend_rss_mb = read_proc_stats(0).rss_mb;
  }
  if (watchdog && watchdog->fired()) {
    std::fprintf(stderr, "rtl_verdict_bench: hang watchdog fired\n");
  }
  return r;
}

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// p95, or p90 / p50 for runs too short to leave 10 samples beyond it.
/// Not p99: on a shared VM about one op in a hundred is delayed by the
/// host (a descheduled or halted vCPU), and ten-run spreads of p99 reached
/// 0.2-0.7 of the median against 0.04-0.08 for p95.
double tail_percentile(std::size_t samples) {
  for (const double p : {0.95, 0.9}) {
    if (static_cast<double>(samples) * (1.0 - p) >= 10.0) return p;
  }
  return 0.5;
}

/// Pin the benchmark to the last `count` CPUs it may use; threads and
/// children created later inherit the mask. On a shared VM the vCPUs run
/// at different speeds from minute to minute, and a thread that migrates
/// between them changes speed mid-run: rtl_audit unpinned spread 1778-2112
/// ops/s over six seeds against 2105-2182 for five of six pinned ones,
/// interleaved. remote_screen puts the front end and both servers on one
/// CPU, so a server wake-up is a local context switch rather than the
/// wake-up of another, possibly halted, vCPU, whose latency set its tail
/// (p99 3.2-10 ms unpinned against 3.6-3.8 ms pinned on the same seeds).
void pin_to_last_cpus(int count) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (int c = CPU_SETSIZE - 1; c >= 0 && count > 0; --c) {
    if (CPU_ISSET(c, &mask)) {
      CPU_SET(c, &pinned);
      --count;
    }
  }
  if (count > 0) return;  // fewer CPUs than threads: leave the mask alone
  if (sched_setaffinity(0, sizeof pinned, &pinned) != 0) {
    std::fprintf(stderr, "rtl_verdict_bench: cannot set CPU affinity\n");
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

[[noreturn]] void digest_error(const std::string& what) {
  std::fprintf(stderr, "rtl_verdict_bench: verdict digest mismatch: %s\n",
               what.c_str());
  std::exit(3);
}

/// Every run of a workload class on one seed and size must reproduce the
/// first run's digest; resident_screen and remote_screen share a class.
/// The store lives in --state-dir, which the runner names after a hash of
/// the sources, so a change to the code starts a fresh store.
void check_digest_store(const Args& args, std::size_t ops,
                        const std::string& digest) {
  namespace fs = std::filesystem;
  const std::string klass =
      args.workload == Workload::kRtlAudit ? "rtl" : "screen";
  const fs::path dir = fs::path(args.state_dir) / "digests";
  fs::create_directories(dir);
  const fs::path file =
      dir / (klass + "-seed" + std::to_string(args.seed) + "-ops" +
             std::to_string(ops) + "-rows" +
             std::to_string(args.workload == Workload::kRtlAudit
                                ? 0
                                : args.library_rows) +
             ".txt");
  std::ifstream is(file);
  std::string stored;
  if (is >> stored) {
    if (stored != digest) {
      digest_error(args.workload_name + " seed " + std::to_string(args.seed) +
                   ": " + digest + " != first run's " + stored);
    }
    return;
  }
  std::ofstream os(file);
  os << digest << '\n';
}

std::vector<Metric> per_layer_metrics(const Args& args, const Tracer& tracer,
                                      const PassResult& untraced,
                                      const PassResult& traced,
                                      std::size_t warmup, std::size_t ops) {
  const bool remote = args.workload == Workload::kRemoteScreen;
  const std::vector<Span>& spans = tracer.spans();
  const auto dur_ms = [](const Span& s) {
    return 1e-6 * static_cast<double>(s.end_ns - s.start_ns);
  };
  std::vector<double> busy(static_cast<std::size_t>(Stage::kCount), 0.0);
  std::vector<std::size_t> calls(static_cast<std::size_t>(Stage::kCount), 0);
  double commit_ms = 0;
  double op_ms = 0;
  double direct_children_ms = 0;
  std::size_t screens = 0;
  std::vector<double> child_of_screen(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < warmup) continue;
    const auto k = static_cast<std::size_t>(s.stage);
    busy[k] += dur_ms(s);
    ++calls[k];
    if (s.parent >= 0) {
      const Span& parent = spans[static_cast<std::size_t>(s.parent)];
      if (parent.stage == Stage::kScreen &&
          (s.stage == Stage::kEmbed || s.stage == Stage::kCoreScreen)) {
        child_of_screen[static_cast<std::size_t>(s.parent)] += dur_ms(s);
      }
      if (parent.stage == Stage::kOp) direct_children_ms += dur_ms(s);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < warmup) continue;
    if (s.stage == Stage::kOp) op_ms += dur_ms(s);
    if (s.stage == Stage::kScreen) {
      // audit.commit = screen() minus its embed and corpus-screen
      // children: admit + evict + compact + verdict assembly.
      commit_ms += dur_ms(s) - child_of_screen[i];
      ++screens;
    }
  }
  const Counters& c = tracer.counters();
  const auto per = [](double total, double count) {
    return count > 0 ? total / count : 0.0;
  };
  const auto b = [&](Stage s) { return busy[static_cast<std::size_t>(s)]; };
  const auto n = [&](Stage s) {
    return static_cast<double>(calls[static_cast<std::size_t>(s)]);
  };
  const double designs = static_cast<double>(c.designs);
  const double timed_ops = static_cast<double>(ops - warmup);
  const double server_cpu =
      remote ? untraced.servers_after.cpu_s - untraced.servers_before.cpu_s
             : 0.0;
  const auto delta_u = [&](std::uint64_t after, std::uint64_t before) {
    return remote ? static_cast<double>(after - before) : 0.0;
  };

  std::vector<Metric> m = {
      {"verilog.preprocess_ms", per(b(Stage::kPreprocess), designs), "ms"},
      {"verilog.parse_ms", per(b(Stage::kParse), designs), "ms"},
      {"verilog.elaborate_ms", per(b(Stage::kElaborate), designs), "ms"},
      {"verilog.tokens_per_design", per(static_cast<double>(c.tokens), designs),
       "count"},
      {"verilog.reject_share", per(static_cast<double>(c.rejects), designs),
       "share"},
      {"dfg.dataflow_ms", per(b(Stage::kDataflow), designs), "ms"},
      {"dfg.merge_ms", per(b(Stage::kMerge), designs), "ms"},
      {"dfg.trim_ms", per(b(Stage::kTrim), designs), "ms"},
      {"dfg.expr_nodes_per_design",
       per(static_cast<double>(c.expr_nodes), designs), "count"},
      {"dfg.nodes_per_design", per(static_cast<double>(c.dfg_nodes), designs),
       "count"},
      {"dfg.trim_waste_share",
       per(static_cast<double>(c.trimmed), static_cast<double>(c.dfg_nodes)),
       "share"},
      {"gnn.featurize_ms", per(b(Stage::kFeaturize), designs), "ms"},
      {"gnn.embed_ms", per(b(Stage::kEmbed), n(Stage::kEmbed)), "ms"},
      {"gnn.graph_nodes_per_design",
       per(static_cast<double>(c.graph_nodes), static_cast<double>(c.embedded)),
       "count"},
      {"core.screen_ms", per(b(Stage::kCoreScreen), n(Stage::kCoreScreen)),
       "ms"},
      {"core.scanned_per_screen",
       per(static_cast<double>(c.scanned), static_cast<double>(c.screens)),
       "count"},
      {"core.rescored_per_screen",
       per(static_cast<double>(c.rescored), static_cast<double>(c.screens)),
       "count"},
      {"core.rescore_share",
       per(static_cast<double>(c.rescored), static_cast<double>(c.scanned)),
       "share"},
      {"core.flagged_per_screen",
       per(static_cast<double>(c.flagged), static_cast<double>(c.screens)),
       "count"},
      {"core.topk_ms", per(b(Stage::kCoreTopK), n(Stage::kCoreTopK)), "ms"},
      {"audit.commit_ms", per(commit_ms, static_cast<double>(screens)), "ms"},
      {"audit.evictions_per_commit",
       per(static_cast<double>(c.removes), static_cast<double>(screens)),
       "count"},
      {"util.cpu_per_wall", per(untraced.cpu_s, untraced.wall_s), "ratio"},
      {"dist.screen_ms",
       remote ? per(b(Stage::kCoreScreen), n(Stage::kCoreScreen)) : 0.0, "ms"},
      {"dist.server_cpu_ms_per_op", per(1e3 * server_cpu, timed_ops), "ms"},
      {"net.bytes_per_op",
       per(delta_u(untraced.net_after.out_octets,
                   untraced.net_before.out_octets),
           timed_ops),
       "bytes"},
      {"net.segments_per_op",
       per(delta_u(untraced.net_after.out_segments,
                   untraced.net_before.out_segments),
           timed_ops),
       "count"},
      {"dist.frontend_rss_mb", remote ? untraced.frontend_rss_mb : 0.0, "MB"},
      {"dist.server_rss_mb", remote ? untraced.servers_after.rss_mb : 0.0,
       "MB"},
      {"trace.overhead_share", per(traced.wall_s, untraced.wall_s) - 1.0,
       "share"},
      {"trace.op_ms", per(op_ms, timed_ops), "ms"},
      {"trace.stage_sum_share", per(direct_children_ms, op_ms), "share"},
  };

  // The stage-share ledger: where one op's time goes.
  std::printf("stage-share ledger (%s, traced replay, %zu timed ops, "
              "mean op %.4f ms)\n",
              args.workload_name.c_str(), ops - warmup, per(op_ms, timed_ops));
  std::printf("  %-22s %12s %8s\n", "stage", "ms/op", "share");
  const auto row = [&](const char* name, double total) {
    std::printf("  %-22s %12.5f %7.1f%%\n", name, per(total, timed_ops),
                100.0 * per(total, op_ms));
  };
  row("verilog.preprocess", b(Stage::kPreprocess));
  row("verilog.parse", b(Stage::kParse));
  row("verilog.elaborate", b(Stage::kElaborate));
  row("dfg.dataflow", b(Stage::kDataflow));
  row("dfg.merge", b(Stage::kMerge));
  row("dfg.trim", b(Stage::kTrim));
  row("gnn.featurize", b(Stage::kFeaturize));
  row("gnn.embed", b(Stage::kEmbed));
  row(remote ? "dist.screen" : "core.screen", b(Stage::kCoreScreen));
  row("audit.commit", commit_ms);
  row(remote ? "dist.top_k" : "core.top_k", b(Stage::kCoreTopK));
  row("audit.top_k (rest)", b(Stage::kTopK) - b(Stage::kCoreTopK));
  row("unattributed", op_ms - direct_children_ms);
  std::printf("  tracing overhead: traced %.3f s vs untraced %.3f s wall "
              "(%+.1f%%)\n",
              traced.wall_s, untraced.wall_s,
              100.0 * (per(traced.wall_s, untraced.wall_s) - 1.0));
  return m;
}

int run(const Args& args) {
  // One CPU per thread the workload keeps busy (see pin_to_last_cpus);
  // set-up runs as many worker threads as it has CPUs, so none contend.
  const int cpus = args.workload == Workload::kResidentScreen ? 2 : 1;
  pin_to_last_cpus(cpus);
  const auto setup_threads = static_cast<std::size_t>(cpus);
  // Nominal ops per second of --seconds on the reference host; the op
  // count is fixed by it, so every run does the same work. Both screen
  // workloads run the same op stream, so their digests must agree.
  const bool rtl = args.workload == Workload::kRtlAudit;
  const std::size_t rate = rtl ? 1650 : 600;
  std::size_t warmup_target = rtl ? 120 : 100;
  const std::size_t check_default = rtl ? 300 : 100;
  const std::size_t timed_target =
      args.ops > 0 ? args.ops
                   : static_cast<std::size_t>(args.seconds * static_cast<double>(rate));
  if (args.ops > 0) warmup_target = std::max<std::size_t>(args.ops / 10, 10);

  // ---- Set-up (timed): train, generate, featurize, fill, spawn. The
  // last of the repetitions before the timed phase is the one measured;
  // setup_s is the median of those and of the ones after it, so it spans
  // the run rather than the host's state in its first seconds.
  std::vector<double> setup_s;      // scaled to the reference host speed
  std::vector<double> setup_raw_s;  // as measured
  HostSpeed speed;
  std::optional<Trained> trained;
  Inputs inputs;
  Instance inst;
  const auto set_up = [&] {
    teardown(inst);  // reap the previous repetition's servers untimed
    inputs = Inputs{};
    trained.reset();
    speed.clear();
    speed.sample(64);
    const Clock::time_point t0 = Clock::now();
    trained.emplace(train_model(setup_threads));
    if (rtl) {
      inputs.rtl.emplace(
          make_rtl_workload(args.seed, warmup_target, timed_target));
    } else {
      inputs.screen.emplace(make_screen_workload(args.seed, warmup_target,
                                                 timed_target, args.library_rows,
                                                 setup_threads));
    }
    inst = make_instance(args, *trained, inputs, Flavor::kMeasured, nullptr);
    setup_raw_s.push_back(seconds_since(t0));
    speed.sample(64);
    setup_s.push_back(setup_raw_s.back() * speed.scale());
  };
  for (int rep = 0; rep < (args.trace ? 1 : 3); ++rep) set_up();
  const std::size_t total = inputs.ops().size();
  const std::size_t warmup = inputs.warmup();
  const std::size_t check_ops = std::min(total, check_default);

  Tracer untraced_tracer(false);
  PassOptions po;
  po.check_ops = check_ops;
  PassResult main =
      run_pass(args, inputs, inst, untraced_tracer, speed, po, warmup);
  const ProcStats self = read_proc_stats(0);
  const ProcStats servers = sum_stats(inst);
  const double peak_rss_mb = self.peak_rss_mb + servers.peak_rss_mb;
  teardown(inst);

  if (args.trace) {
    Tracer tracer(true);
    Instance traced_inst =
        make_instance(args, *trained, inputs, Flavor::kMeasured, &tracer);
    PassOptions tpo = po;
    tpo.via_modules = rtl;
    const PassResult traced =
        run_pass(args, inputs, traced_inst, tracer, speed, tpo, warmup);
    teardown(traced_inst);
    if (traced.digest.hex() != main.digest.hex()) {
      digest_error("traced replay " + traced.digest.hex() + " != untraced " +
                   main.digest.hex());
    }
    if (main.failed == 0) check_digest_store(args, total, main.digest.hex());
    const std::vector<Metric> metrics =
        per_layer_metrics(args, tracer, main, traced, warmup, total);
    namespace fs = std::filesystem;
    fs::create_directories(fs::path(args.state_dir) / "traces");
    tracer.write_csv((fs::path(args.state_dir) / "traces" /
                      (args.workload_name + "-seed" +
                       std::to_string(args.seed) + ".csv"))
                         .string());
    const bool correct = main.failed == 0 && traced.failed == 0;
    print_result(correct, main.attempted + traced.attempted,
                 main.failed + traced.failed, metrics);
    return 0;
  }

  // ---- Verdict checks: a differently configured corpus must reproduce
  // the prefix of the verdict stream bit for bit, and every run of this
  // seed must reproduce the first run's whole-stream digest.
  {
    Tracer off(false);
    Instance ref =
        make_instance(args, *trained, inputs, Flavor::kReference, nullptr);
    PassOptions rpo;
    rpo.via_modules = rtl;
    rpo.stop_after = check_ops;
    rpo.check_ops = check_ops;
    const PassResult reference =
        run_pass(args, inputs, ref, off, speed, rpo, check_ops);
    if (main.failed == 0 && reference.prefix_digest != main.prefix_digest) {
      digest_error("first " + std::to_string(check_ops) + " ops: " +
                   main.prefix_digest + " != reference " +
                   reference.prefix_digest);
    }
  }
  if (main.failed == 0) check_digest_store(args, total, main.digest.hex());
  for (int rep = 0; rep < 2; ++rep) set_up();
  teardown(inst);

  std::vector<double> sorted_setup = setup_s;
  std::sort(sorted_setup.begin(), sorted_setup.end());
  const double p_tail = tail_percentile(main.latency_ms.size());
  const double timed_ops = static_cast<double>(total - warmup);
  const double throughput = main.wall_s > 0 ? timed_ops / main.wall_s : 0.0;
  const double p50 = percentile(main.latency_ms, 0.5);
  const double tail = percentile(main.latency_ms, p_tail);
  // Timings are reported at the reference host speed (see host_speed.h);
  // the info line keeps them as measured.
  const double scale = HostSpeed::kReferenceMs / main.host_ms;
  const auto list = [](const std::vector<double>& v) {
    std::string out;
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.4f", i > 0 ? ", " : "", v[i]);
      out += buf;
    }
    return out;
  };
  // A model that flags nothing scores negatives / screened; one that
  // flags everything scores at most 1 minus that.
  std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"timed_ops\": %zu, \"warmup_ops\": %zu, \"samples\": %zu, "
              "\"tail_percentile\": %.1f, \"host_kernel_ms\": %.5f, "
              "\"host_scale\": %.4f, \"measured\": {\"throughput_per_s\": "
              "%.2f, \"latency_p50_ms\": %.5f, \"latency_tail_ms\": %.5f, "
              "\"setup_runs_s\": [%s]}, \"setup_runs_scaled_s\": [%s], "
              "\"screened\": %zu, \"negatives\": %zu, "
              "\"agree_on_negatives\": %zu, \"digest\": \"%s\"}}\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), total - warmup,
              warmup, main.latency_ms.size(), 100.0 * p_tail, main.host_ms,
              scale, throughput, p50, tail, list(setup_raw_s).c_str(),
              list(setup_s).c_str(), main.screened, main.negatives,
              main.agree_negatives, main.digest.hex().c_str());

  const std::vector<Metric> metrics = {
      {"throughput_per_s", throughput / scale, "1/s"},
      {"latency_p50_ms", p50 * scale, "ms"},
      {"latency_tail_ms", tail * scale, "ms"},
      {"piracy_accuracy",
       main.screened > 0 ? static_cast<double>(main.agree) /
                               static_cast<double>(main.screened)
                         : 0.0,
       "share"},
      {"success_share",
       static_cast<double>(main.attempted - main.failed) /
           static_cast<double>(std::max<std::size_t>(main.attempted, 1)),
       "share"},
      {"setup_s", sorted_setup[sorted_setup.size() / 2], "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
  print_result(main.failed == 0, main.attempted, main.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::install_reaper();
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtl_verdict_bench: %s\n", e.what());
    return 1;
  }
}
