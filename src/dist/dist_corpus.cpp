#include "dist/dist_corpus.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "core/shard_sweep.h"
#include "core/sharded_corpus.h"
#include "core/snapshot_format.h"
#include "net/wire_format.h"
#include "util/contract.h"

namespace gnn4ip::dist {

namespace {

using core::PairScore;
using core::ScreenMatch;
using core::ScreenRow;
using net::FrameBuilder;
using net::FrameCursor;
using net::MsgType;

constexpr std::uint64_t kNoLocal = std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::vector<Endpoint> parse_endpoints(std::string_view spec) {
  std::vector<Endpoint> endpoints;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.rfind(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == item.size()) {
      throw net::WireConnectionError("malformed endpoint '" +
                                     std::string(item) +
                                     "' (expected host:port)");
    }
    Endpoint ep;
    ep.host = std::string(item.substr(0, colon));
    unsigned long port = 0;
    const std::string port_text(item.substr(colon + 1));
    try {
      std::size_t used = 0;
      port = std::stoul(port_text, &used);
      if (used != port_text.size()) port = 0;
    } catch (const std::exception&) {
      port = 0;
    }
    if (port == 0 || port > 65535) {
      throw net::WireConnectionError("endpoint '" + std::string(item) +
                                     "' has no valid port (1..65535)");
    }
    ep.port = static_cast<std::uint16_t>(port);
    endpoints.push_back(std::move(ep));
  }
  if (endpoints.empty()) {
    throw net::WireConnectionError(
        "empty endpoint list (expected host:port[,host:port...])");
  }
  return endpoints;
}

std::unique_ptr<DistCorpus> DistCorpus::connect(
    const std::vector<Endpoint>& endpoints, std::string model_fingerprint,
    const core::ScorerOptions& options, std::size_t shard_budget,
    bool allow_resident) {
  GNN4IP_ENSURE(!endpoints.empty(), "DistCorpus: need at least one shard");
  bool any_resident = false;
  auto shared = std::make_shared<ChannelSet>();
  {
    util::MutexLock lock(shared->mu);
    std::vector<std::uint8_t> buf;
    for (const Endpoint& ep : endpoints) {
      Channel ch;
      ch.endpoint = ep;
      ch.sock = net::Socket::connect_to(ep.host, ep.port);
      buf.clear();
      FrameBuilder hello(buf, MsgType::kHello);
      hello.put_bytes(net::kWireMagic, sizeof(net::kWireMagic));
      hello.put_u32(net::kWireVersion);
      hello.put_u32(net::kWireByteOrderMark);
      hello.put_u32(0);  // dim unknown until the first admission
      hello.put_string(model_fingerprint);
      hello.finish();
      ch.sock.write_all(buf.data(), buf.size());
      const net::Frame ack = net::expect_frame(ch.sock, MsgType::kHelloAck);
      FrameCursor cur(ack.payload);
      (void)cur.get_u32("shard dim");
      const std::uint64_t rows = cur.get_u64("shard rows");
      (void)cur.get_u64("shard live rows");
      const std::string server_fp = cur.get_string("shard fingerprint");
      cur.done("HelloAck");
      if (!model_fingerprint.empty() && !server_fp.empty() &&
          server_fp != model_fingerprint) {
        throw net::WireFingerprintError(
            "shard " + ep.host + ":" + std::to_string(ep.port) +
            " serves model " + server_fp + " but this client embeds with " +
            model_fingerprint);
      }
      if (rows != 0) {
        if (!allow_resident) {
          throw net::WireProtocolError(
              "shard " + ep.host + ":" + std::to_string(ep.port) +
              " already holds " + std::to_string(rows) +
              " rows — a fresh DistCorpus owns its cluster's contents; "
              "restore a snapshot to adopt pre-loaded shards");
        }
        any_resident = true;
      }
      shared->channels.push_back(std::move(ch));
    }
  }
  auto corpus = std::unique_ptr<DistCorpus>(
      new DistCorpus(std::move(shared), options, shard_budget,
                     std::move(model_fingerprint)));
  {
    util::MutexLock lock(corpus->shared_->mu);
    corpus->unreconciled_ = any_resident;
  }
  return corpus;
}

void DistCorpus::check_reconciled_locked() const {
  if (unreconciled_) {
    throw net::WireProtocolError(
        "the shard servers hold resident rows this corpus has not "
        "adopted; restore their snapshot (--load-corpus) before using it");
  }
}

DistCorpus::DistCorpus(std::shared_ptr<ChannelSet> channels,
                       const core::ScorerOptions& options,
                       std::size_t shard_budget, std::string fingerprint)
    : options_(options),
      shard_budget_(shard_budget),
      fingerprint_(std::move(fingerprint)),
      shared_(std::move(channels)) {
  util::MutexLock lock(shared_->mu);
  globals_.resize(shared_->channels.size());
  mirror_.resize(shared_->channels.size());
}

DistCorpus::~DistCorpus() {
  // Push any still-buffered one-way mutations out — a shard restarted
  // from its own SaveShard file must not be missing the tail of an
  // admission batch. A dead peer here is not worth terminating over.
  util::MutexLock lock(shared_->mu);
  for (Channel& ch : shared_->channels) {
    try {
      flush_locked(ch);
    } catch (const net::WireError&) {
    }
  }
}

void DistCorpus::flush_locked(Channel& ch) const {
  if (ch.sendbuf.empty()) return;
  ch.sock.write_all(ch.sendbuf.data(), ch.sendbuf.size());
  ch.sendbuf.clear();
}

void DistCorpus::buffer_flush_locked(Channel& ch) const {
  if (ch.sendbuf.size() > net::kFlushThresholdBytes) flush_locked(ch);
}

std::size_t DistCorpus::admit_mirror_locked(std::string name,
                                            const tensor::Matrix& embedding) {
  const std::size_t s =
      core::ShardedCorpus::placement(name, globals_.size());
  const std::size_t g = entries_.size();
  entries_.push_back({s, mirror_[s].add(std::move(name), embedding)});
  globals_[s].push_back(g);
  ++live_count_;
  return g;
}

std::span<const float> DistCorpus::row_locked(std::size_t g) const {
  const core::ShardRef& e = entries_[g];
  return mirror_[e.shard].row(e.local);
}

std::size_t DistCorpus::add(std::string name,
                            const tensor::Matrix& embedding) {
  GNN4IP_ENSURE(!embedding.empty(), "DistCorpus: empty embedding");
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  const std::span<const float> flat = embedding.data();
  if (dim_ == 0) {
    dim_ = flat.size();
  } else {
    GNN4IP_ENSURE(flat.size() == dim_,
                  "DistCorpus: embedding dim " + std::to_string(flat.size()) +
                      " != corpus dim " + std::to_string(dim_));
  }
  const std::size_t g = admit_mirror_locked(std::move(name), embedding);
  const core::ShardRef& e = entries_[g];
  Channel& ch = shared_->channels[e.shard];
  FrameBuilder b(ch.sendbuf, MsgType::kAdmitRows);
  b.put_u32(static_cast<std::uint32_t>(dim_));
  b.put_u32(1);
  b.put_string(mirror_[e.shard].name(e.local));
  b.put_bytes(flat.data(), flat.size() * sizeof(float));
  b.finish();
  buffer_flush_locked(ch);
  return g;
}

void DistCorpus::remove(std::size_t i) {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: remove out of range");
  const core::ShardRef e = entries_[i];
  GNN4IP_ENSURE(mirror_[e.shard].live(e.local),
                "DistCorpus: row already removed");
  mirror_[e.shard].remove(e.local);
  --live_count_;
  Channel& ch = shared_->channels[e.shard];
  FrameBuilder b(ch.sendbuf, MsgType::kRemove);
  b.put_u64(e.local);
  b.finish();
  buffer_flush_locked(ch);
}

std::vector<std::size_t> DistCorpus::compact() {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  // The renumbering ShardedCorpus::compact runs, on the mirror's stores;
  // each server's Retire handler runs the same EmbeddingStore::retire on
  // the same rows and tombstones, so it holds the same holes and reclaims
  // to the same local rows.
  std::vector<std::size_t> mapping =
      core::retire_and_renumber(mirror_, entries_, globals_);
  live_count_ = entries_.size();
  for (Channel& ch : shared_->channels) {
    FrameBuilder b(ch.sendbuf, MsgType::kRetire);
    b.finish();
    buffer_flush_locked(ch);
  }
  return mapping;
}

std::size_t DistCorpus::size() const {
  util::MutexLock lock(shared_->mu);
  return entries_.size();
}

std::size_t DistCorpus::dim() const {
  util::MutexLock lock(shared_->mu);
  return dim_;
}

std::size_t DistCorpus::live_count() const {
  util::MutexLock lock(shared_->mu);
  return live_count_;
}

bool DistCorpus::live(std::size_t i) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: index out of range");
  return mirror_[entries_[i].shard].live(entries_[i].local);
}

const std::string& DistCorpus::name(std::size_t i) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: index out of range");
  // Valid until the next admission into that shard or compact() — the
  // same invalidation contract as ShardedCorpus.
  return mirror_[entries_[i].shard].name(entries_[i].local);
}

std::size_t DistCorpus::num_shards() const {
  util::MutexLock lock(shared_->mu);
  return globals_.size();
}

std::size_t DistCorpus::shard_of(std::size_t i) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(i < entries_.size(), "DistCorpus: index out of range");
  return entries_[i].shard;
}

std::size_t DistCorpus::shard_live_count(std::size_t s) const {
  util::MutexLock lock(shared_->mu);
  GNN4IP_ENSURE(s < mirror_.size(), "DistCorpus: shard out of range");
  return mirror_[s].live_count();
}

float DistCorpus::score(std::size_t i, std::size_t j) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  GNN4IP_ENSURE(i < entries_.size() && j < entries_.size(),
                "DistCorpus: pair index out of range");
  // Single pairs score off the mirror — same bytes, same cosine_pair
  // arithmetic as in-process, and no round trip.
  return core::cosine_pair(row_locked(i), row_locked(j));
}

std::vector<ScreenRow> DistCorpus::screen_new_rows(std::size_t first_new,
                                                   float delta) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  GNN4IP_ENSURE(first_new <= entries_.size(),
                "screen_new_rows: first_new past the corpus end");
  const std::size_t new_rows = entries_.size() - first_new;
  if (new_rows == 0) return {};
  const std::size_t d = dim_;
  const std::size_t shard_count = globals_.size();
  const std::size_t tail_bytes = new_rows * d * sizeof(float);
  // The N×D probe slab, gathered once from the per-shard mirror.
  std::vector<float> probe_block(new_rows * d);
  for (std::size_t r = 0; r < new_rows; ++r) {
    const std::span<const float> row = row_locked(first_new + r);
    std::copy(row.begin(), row.end(), probe_block.begin() + r * d);
  }

  // Pipelined fan-out: write every shard's request (header from the
  // send buffer, the probe slab as a writev tail), then read responses
  // in shard order. The shard processes overlap their sweeps while we
  // wait on the first.
  std::vector<std::size_t> limits(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    // Candidates are this shard's rows admitted before first_new — an
    // ascending prefix of its local order.
    limits[s] = core::prefix_below(globals_[s], first_new);
    Channel& ch = shared_->channels[s];
    flush_locked(ch);
    FrameBuilder b(ch.sendbuf, MsgType::kScreen);
    b.put_u32(static_cast<std::uint32_t>(d));
    b.put_u32(static_cast<std::uint32_t>(new_rows));
    b.put_f32(delta);
    b.put_u8(options_.int8_prefilter ? 1 : 0);
    b.put_u64(limits[s]);
    b.finish(tail_bytes);
    ch.sock.write_vectored({{ch.sendbuf.data(), ch.sendbuf.size()},
                            {probe_block.data(), tail_bytes}});
    ch.sendbuf.clear();
  }
  // Each shard answers with its settled store-local rows; parse them
  // (checking every local row against the candidate limit — the frame
  // is outside input) and merge with the in-process rule.
  std::vector<std::vector<ScreenRow>> parts(shard_count,
                                            std::vector<ScreenRow>(new_rows));
  for (std::size_t s = 0; s < shard_count; ++s) {
    Channel& ch = shared_->channels[s];
    const net::Frame frame =
        net::expect_frame(ch.sock, MsgType::kScreenResult);
    FrameCursor cur(frame.payload);
    const auto checked = [&](std::uint64_t local) {
      if (local >= limits[s]) {
        throw net::WireProtocolError(
            "shard " + std::to_string(s) + " reported local row " +
            std::to_string(local) + " beyond its candidate limit " +
            std::to_string(limits[s]));
      }
      return static_cast<std::size_t>(local);
    };
    for (ScreenRow& part : parts[s]) {
      const std::uint32_t flag_count = cur.get_u32("flag count");
      for (std::uint32_t f = 0; f < flag_count; ++f) {
        const std::size_t local = checked(cur.get_u64("flagged local"));
        part.flagged.push_back({local, cur.get_f32("flagged similarity")});
      }
      if (cur.get_u8("has best") != 0) {
        const std::size_t local = checked(cur.get_u64("best local"));
        part.best = ScreenMatch{local, cur.get_f32("best similarity")};
      }
      part.scanned = static_cast<std::size_t>(cur.get_u64("scanned"));
      part.rescored = static_cast<std::size_t>(cur.get_u64("rescored"));
    }
    cur.done("ScreenResult");
  }
  return core::merge_screen(parts, globals_);
}

std::vector<PairScore> DistCorpus::top_k(std::size_t i, std::size_t k) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  GNN4IP_ENSURE(i < entries_.size(), "top_k: row index out of range");
  const core::ShardRef query = entries_[i];
  GNN4IP_ENSURE(mirror_[query.shard].live(query.local),
                "top_k: row has been removed");
  const std::size_t d = dim_;
  const std::size_t shard_count = globals_.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    Channel& ch = shared_->channels[s];
    flush_locked(ch);
    FrameBuilder b(ch.sendbuf, MsgType::kTopK);
    b.put_u32(static_cast<std::uint32_t>(d));
    b.put_u64(k);
    b.put_u64(globals_[s].size());
    b.put_u64(query.shard == s ? query.local : kNoLocal);
    b.put_u8(options_.int8_prefilter ? 1 : 0);
    b.put_bytes(row_locked(i).data(), d * sizeof(float));
    b.finish();
    flush_locked(ch);
  }
  // Each shard returns its true top-min(k, ·) prefix; the global top-k
  // is a subset of their union, so merging under the same total order
  // and truncating reproduces the in-process ranking exactly.
  std::vector<PairScore> merged;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const net::Frame frame =
        net::expect_frame(shared_->channels[s].sock, MsgType::kTopKResult);
    FrameCursor cur(frame.payload);
    const std::uint32_t count = cur.get_u32("match count");
    for (std::uint32_t m = 0; m < count; ++m) {
      const std::uint64_t local = cur.get_u64("match local");
      const float sim = cur.get_f32("match similarity");
      if (local >= globals_[s].size()) {
        throw net::WireProtocolError("shard " + std::to_string(s) +
                                     " reported unknown local row " +
                                     std::to_string(local));
      }
      merged.push_back({i, globals_[s][static_cast<std::size_t>(local)], sim});
    }
    cur.done("TopKResult");
  }
  return core::merge_top_k(std::move(merged), k);
}

std::vector<PairScore> DistCorpus::flag(float delta) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  const std::size_t d = dim_;
  const std::size_t shard_count = globals_.size();
  const std::uint8_t prefilter = options_.int8_prefilter ? 1 : 0;
  std::vector<PairScore> pairs;

  // Round 1 — within-shard pairs, one request per shard, pipelined.
  for (std::size_t s = 0; s < shard_count; ++s) {
    Channel& ch = shared_->channels[s];
    flush_locked(ch);
    FrameBuilder b(ch.sendbuf, MsgType::kFlag);
    b.put_f32(delta);
    b.put_u8(prefilter);
    b.put_u64(globals_[s].size());
    b.finish();
    flush_locked(ch);
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const net::Frame frame =
        net::expect_frame(shared_->channels[s].sock, MsgType::kFlagResult);
    FrameCursor cur(frame.payload);
    const std::uint32_t count = cur.get_u32("pair count");
    for (std::uint32_t m = 0; m < count; ++m) {
      const std::uint64_t la = cur.get_u64("pair local a");
      const std::uint64_t lb = cur.get_u64("pair local b");
      const float sim = cur.get_f32("pair similarity");
      if (la >= globals_[s].size() || lb >= globals_[s].size()) {
        throw net::WireProtocolError("shard " + std::to_string(s) +
                                     " flagged an unknown local pair");
      }
      // Within one shard local order equals global order, so (la < lb)
      // already gives ascending global (a, b).
      pairs.push_back({globals_[s][static_cast<std::size_t>(la)],
                       globals_[s][static_cast<std::size_t>(lb)], sim});
    }
    cur.done("FlagResult");
  }

  // Rounds 2..S — cross-shard pairs: shard s's live rows travel once to
  // every shard t > s. Each round sends at most one request per
  // connection (all distinct t), so requests pipeline across servers
  // without ever queueing two bulk payloads on one socket.
  std::vector<float> scratch;
  std::vector<std::size_t> probe_globals;
  for (std::size_t s = 0; s + 1 < shard_count; ++s) {
    const core::EmbeddingStore& store = mirror_[s];
    probe_globals.clear();
    scratch.clear();
    for (std::size_t local = 0; local < store.size(); ++local) {
      if (!store.live(local)) continue;
      probe_globals.push_back(globals_[s][local]);
      const std::span<const float> row = store.row(local);
      scratch.insert(scratch.end(), row.begin(), row.end());
    }
    if (probe_globals.empty()) continue;
    const std::size_t tail_bytes = scratch.size() * sizeof(float);
    for (std::size_t t = s + 1; t < shard_count; ++t) {
      Channel& ch = shared_->channels[t];
      flush_locked(ch);
      FrameBuilder b(ch.sendbuf, MsgType::kCrossFlag);
      b.put_u32(static_cast<std::uint32_t>(d));
      b.put_u32(static_cast<std::uint32_t>(probe_globals.size()));
      b.put_f32(delta);
      b.put_u8(prefilter);
      b.put_u64(globals_[t].size());
      b.finish(tail_bytes);
      ch.sock.write_vectored({{ch.sendbuf.data(), ch.sendbuf.size()},
                              {scratch.data(), tail_bytes}});
      ch.sendbuf.clear();
    }
    for (std::size_t t = s + 1; t < shard_count; ++t) {
      const net::Frame frame = net::expect_frame(
          shared_->channels[t].sock, MsgType::kCrossFlagResult);
      FrameCursor cur(frame.payload);
      const std::uint32_t count = cur.get_u32("hit count");
      for (std::uint32_t m = 0; m < count; ++m) {
        const std::uint32_t p = cur.get_u32("hit probe");
        const std::uint64_t local = cur.get_u64("hit local");
        const float sim = cur.get_f32("hit similarity");
        if (p >= probe_globals.size() || local >= globals_[t].size()) {
          throw net::WireProtocolError("shard " + std::to_string(t) +
                                       " flagged an unknown cross pair");
        }
        const std::size_t ga = probe_globals[p];
        const std::size_t gb = globals_[t][static_cast<std::size_t>(local)];
        // Cosine is bit-symmetric (commutative multiplies, same
        // ascending-k sum), so orienting the pair ascending matches the
        // in-process (a < b) enumeration exactly.
        pairs.push_back({std::min(ga, gb), std::max(ga, gb), sim});
      }
      cur.done("CrossFlagResult");
    }
  }
  std::sort(pairs.begin(), pairs.end(), core::flag_order);
  return pairs;
}

void DistCorpus::save(const std::string& dir,
                      std::string_view model_fingerprint) const {
  util::MutexLock lock(shared_->mu);
  check_reconciled_locked();
  const std::filesystem::path root(dir);
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  if (ec) {
    throw core::SnapshotIoError("cannot create snapshot directory '" + dir +
                                "': " + ec.message());
  }
  const std::size_t shard_count = globals_.size();
  for (std::size_t s = 0; s < shard_count; ++s) {
    Channel& ch = shared_->channels[s];
    flush_locked(ch);
    FrameBuilder b(ch.sendbuf, MsgType::kSaveShard);
    b.put_string(dir);
    b.put_u64(s);
    b.finish();
    flush_locked(ch);
  }
  for (std::size_t s = 0; s < shard_count; ++s) {
    const net::Frame frame =
        net::expect_frame(shared_->channels[s].sock, MsgType::kSaveAck);
    FrameCursor cur(frame.payload);
    const std::uint64_t rows = cur.get_u64("saved rows");
    const std::uint64_t live_rows = cur.get_u64("saved live rows");
    cur.done("SaveAck");
    // A shard file holds every row but the holes.
    const std::size_t want = mirror_[s].size() - mirror_[s].hole_count();
    if (rows != want || live_rows != mirror_[s].live_count()) {
      throw net::WireProtocolError(
          "shard " + std::to_string(s) + " saved " + std::to_string(rows) +
          " rows (" + std::to_string(live_rows) + " live) but the front end "
          "expected " + std::to_string(want) + " (" +
          std::to_string(mirror_[s].live_count()) +
          " live) — state has drifted");
    }
  }
  // The manifest comes from the mirror — the same lines, in the same
  // order, as ShardedCorpus::save, so either implementation restores
  // the other's snapshots.
  const std::filesystem::path manifest_path = root / core::kManifestFileName;
  std::ofstream os(manifest_path, std::ios::trunc);
  if (!os) {
    throw core::SnapshotIoError("cannot open '" + manifest_path.string() +
                                "' for writing");
  }
  os << core::kManifestMagic << " v" << core::kManifestFormatVersion << '\n';
  os << "model " << model_fingerprint << '\n';
  os << "placement " << core::kPlacementScheme << '\n';
  os << "dim " << dim_ << '\n';
  os << "shards " << shard_count << '\n';
  os << "entries " << entries_.size() << '\n';
  os << "order";
  for (const core::ShardRef& e : entries_) os << ' ' << e.shard;
  os << '\n';
  os << "end\n";
  if (!os) {
    throw core::SnapshotIoError("short write to '" + manifest_path.string() +
                                "'");
  }
}

std::unique_ptr<core::CorpusBackend> DistCorpus::restored(
    const std::string& dir, std::string_view expected_fingerprint) const {
  // Parse + validate entirely in-process first: ShardedCorpus::restore
  // throws every typed SnapshotError before anything is pushed, and the
  // restored probe hands us validated rows, names, and tombstones (it
  // adopts the snapshot's own shard count, which is also what
  // `gnn4ip_shardd --load-shard` servers hold).
  core::ShardedCorpus probe(1, options_, shard_budget_);
  probe.restore(dir, expected_fingerprint);

  auto fresh = std::unique_ptr<DistCorpus>(
      new DistCorpus(shared_, options_, shard_budget_, fingerprint_));
  util::MutexLock lock(shared_->mu);
  const std::size_t shard_count = shared_->channels.size();
  fresh->dim_ = probe.dim();
  tensor::Matrix row(1, fresh->dim_);
  for (std::size_t g = 0; g < probe.size(); ++g) {
    const std::span<const float> values = probe.row(g);
    std::copy(values.begin(), values.end(), row.data().begin());
    const std::size_t mg = fresh->admit_mirror_locked(probe.name(g), row);
    GNN4IP_ENSURE(mg == g, "DistCorpus: restore renumbered a global id");
    if (!probe.live(g)) {
      const core::ShardRef& e = fresh->entries_[g];
      fresh->mirror_[e.shard].remove(e.local);
      --fresh->live_count_;
    }
  }

  // Adopt without pushing when the cluster already holds this snapshot:
  // the shard count matches and every server's resident tallies equal
  // the mirror's. The operator contract (docs/ARCHITECTURE.md) is that
  // matching servers were started with --load-shard on THIS snapshot's
  // shard files; the tally check catches the honest mistakes (wrong
  // file, wrong order, stale snapshot), not a malicious server. A
  // server's row count includes its holes and a shard file holds none,
  // so a server with holes is re-pushed.
  bool adopt = probe.num_shards() == shard_count;
  std::vector<std::uint8_t> buf;
  if (adopt) {
    for (Channel& ch : shared_->channels) {
      flush_locked(ch);
      buf.clear();
      FrameBuilder b(buf, MsgType::kInfo);
      b.finish();
      ch.sock.write_all(buf.data(), buf.size());
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      const net::Frame frame =
          net::expect_frame(shared_->channels[s].sock, MsgType::kInfoAck);
      FrameCursor cur(frame.payload);
      const std::uint32_t sdim = cur.get_u32("shard dim");
      const std::uint64_t rows = cur.get_u64("shard rows");
      const std::uint64_t live_rows = cur.get_u64("shard live rows");
      cur.done("InfoAck");
      adopt = adopt && rows == fresh->mirror_[s].size() &&
              live_rows == fresh->mirror_[s].live_count() &&
              (rows == 0 || sdim == fresh->dim_);
    }
  }
  if (!adopt) {
    // Reset and re-push in global insertion order: AdmitRows frames
    // aggregate in the send buffers (threshold flushes), dead rows are
    // re-admitted then tombstoned so local indices line up with the
    // snapshot's.
    for (Channel& ch : shared_->channels) {
      FrameBuilder b(ch.sendbuf, MsgType::kReset);
      b.finish();
    }
    for (const core::ShardRef& e : fresh->entries_) {
      const core::EmbeddingStore& store = fresh->mirror_[e.shard];
      Channel& ch = shared_->channels[e.shard];
      FrameBuilder b(ch.sendbuf, MsgType::kAdmitRows);
      b.put_u32(static_cast<std::uint32_t>(fresh->dim_));
      b.put_u32(1);
      b.put_string(store.name(e.local));
      b.put_bytes(store.row(e.local).data(), fresh->dim_ * sizeof(float));
      b.finish();
      buffer_flush_locked(ch);
    }
    for (const core::ShardRef& e : fresh->entries_) {
      if (fresh->mirror_[e.shard].live(e.local)) continue;
      Channel& ch = shared_->channels[e.shard];
      FrameBuilder b(ch.sendbuf, MsgType::kRemove);
      b.put_u64(e.local);
      b.finish();
      buffer_flush_locked(ch);
    }
    // Cross-check the push landed exactly (and flush the tails).
    for (Channel& ch : shared_->channels) {
      FrameBuilder b(ch.sendbuf, MsgType::kInfo);
      b.finish();
      flush_locked(ch);
    }
    for (std::size_t s = 0; s < shard_count; ++s) {
      const net::Frame frame =
          net::expect_frame(shared_->channels[s].sock, MsgType::kInfoAck);
      FrameCursor cur(frame.payload);
      (void)cur.get_u32("shard dim");
      const std::uint64_t rows = cur.get_u64("shard rows");
      const std::uint64_t live_rows = cur.get_u64("shard live rows");
      cur.done("InfoAck");
      if (rows != fresh->mirror_[s].size() ||
          live_rows != fresh->mirror_[s].live_count()) {
        throw net::WireProtocolError(
            "shard " + std::to_string(s) + " holds " + std::to_string(rows) +
            " rows (" + std::to_string(live_rows) +
            " live) after the restore push; the mirror expects " +
            std::to_string(fresh->mirror_[s].size()) + " (" +
            std::to_string(fresh->mirror_[s].live_count()) + " live)");
      }
    }
  }
  return fresh;
}

void DistCorpus::fan_out(
    std::size_t count, const std::function<void(std::size_t)>& fn) const {
  // Same worker resolution as ShardedCorpus: explicit num_threads > 1
  // spawns one lazily-created owned pool, 0 uses the shared pool, 1
  // runs inline.
  if (options_.num_threads > 1) {
    util::ThreadPool* pool = nullptr;
    {
      util::MutexLock lock(pool_mu_);
      if (!pool_) {
        pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
      }
      pool = pool_.get();
    }
    pool->parallel_for(count, fn);
    return;
  }
  util::parallel_for(count, options_.num_threads, fn);
}

}  // namespace gnn4ip::dist
