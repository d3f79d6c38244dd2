// Lifecycle of the gnn4ip_shardd processes behind the remote workload.
//
// ShardProcesses spawns N servers on ephemeral loopback ports
// (`--listen 0`), reads each one's "listening on 127.0.0.1:<port>" line
// within a bounded wait, and reaps them in its destructor: SIGTERM, a
// bounded wait, then SIGKILL. Every live child is also listed in a
// process-wide table that the SIGINT/SIGTERM handler installed by
// install_reaper() kills before the benchmark exits, and each child asks
// the kernel for SIGKILL when its parent dies (PR_SET_PDEATHSIG), so no
// exit path of the benchmark leaves a server behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dist/dist_corpus.h"

namespace perfbench {

/// Install SIGINT/SIGTERM handlers that SIGKILL every live shard server
/// and exit, and ignore SIGPIPE (a dead server then surfaces as a wire
/// error on the client, never as a signal).
void install_reaper();

/// Counters of one process read from /proc/<pid>/{stat,status}.
struct ProcStats {
  double cpu_s = 0.0;        // utime + stime
  double rss_mb = 0.0;       // VmRSS
  double peak_rss_mb = 0.0;  // VmHWM
};

/// Read the counters of `pid` ("self" when pid == 0).
[[nodiscard]] ProcStats read_proc_stats(pid_t pid);

/// IP and TCP output counters of this network namespace
/// (/proc/net/netstat IpExt OutOctets, /proc/net/snmp Tcp OutSegs).
/// /proc/<pid>/io cannot stand in: its rchar/wchar and syscr/syscw
/// only see read(2)/write(2)-family calls, not the recv(2)/send(2) the
/// wire layer uses.
struct NetStats {
  std::uint64_t out_octets = 0;
  std::uint64_t out_segments = 0;
};
[[nodiscard]] NetStats read_net_stats();

class ShardProcesses {
 public:
  /// Spawn `count` servers from `binary`; throws std::runtime_error when
  /// one fails to start listening within `start_timeout_ms`.
  ShardProcesses(const std::string& binary, std::size_t count,
                 unsigned start_timeout_ms);
  ~ShardProcesses();
  ShardProcesses(const ShardProcesses&) = delete;
  ShardProcesses& operator=(const ShardProcesses&) = delete;
  ShardProcesses(ShardProcesses&&) = delete;
  ShardProcesses& operator=(ShardProcesses&&) = delete;

  [[nodiscard]] const std::vector<gnn4ip::dist::Endpoint>& endpoints() const {
    return endpoints_;
  }
  [[nodiscard]] const std::vector<pid_t>& pids() const { return pids_; }

  /// Send `sig` to server `i` (fault injection and the hang watchdog).
  void signal(std::size_t i, int sig) const;
  /// SIGKILL every server (async-signal-safe; used by the watchdog).
  void kill_all() const;

 private:
  void reap_all();

  std::vector<pid_t> pids_;
  std::vector<gnn4ip::dist::Endpoint> endpoints_;
};

}  // namespace perfbench
