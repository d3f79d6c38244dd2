#include "shardd.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

// Live children, readable from a signal handler (lock-free atomics).
std::array<std::atomic<pid_t>, 16> g_children{};

void register_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  // Table full: the child still dies with us through PR_SET_PDEATHSIG.
}

void unregister_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void on_fatal_signal(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) ::kill(pid, SIGKILL);
  }
  ::_exit(128 + sig);
}

/// Read one '\n'-terminated line from `fd` before `deadline`; empty on
/// timeout or EOF.
std::string read_line(int fd, std::chrono::steady_clock::time_point deadline) {
  std::string line;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return {};
    pollfd p{fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return {};
    char buf[256];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    line.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = line.find('\n');
    if (nl != std::string::npos) return line.substr(0, nl);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Value of column `column` in the "<prefix> names" / "<prefix> values"
/// line pair of a /proc/net/{netstat,snmp} file.
std::uint64_t net_counter(const std::string& path, const std::string& prefix,
                          const std::string& column) {
  std::istringstream is(slurp(path));
  std::string names;
  std::string values;
  while (std::getline(is, names)) {
    if (names.rfind(prefix, 0) != 0 || !std::getline(is, values)) continue;
    std::istringstream n(names);
    std::istringstream v(values);
    std::string name;
    std::string value;
    while (n >> name && v >> value) {
      if (name == column) return std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  return 0;
}

std::uint64_t field_u64(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

}  // namespace

void install_reaper() {
  struct sigaction sa {};
  sa.sa_handler = on_fatal_signal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGHUP, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

ProcStats read_proc_stats(pid_t pid) {
  const std::string dir =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  ProcStats s;
  const std::string stat = slurp(dir + "/stat");
  const std::size_t close = stat.rfind(')');
  if (close != std::string::npos) {
    std::istringstream fields(stat.substr(close + 2));
    std::string token;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    // Field 3 (state) is the first token after "(comm) "; utime and
    // stime are fields 14 and 15.
    for (int field = 3; fields >> token && field <= 15; ++field) {
      if (field == 14) utime = std::strtoull(token.c_str(), nullptr, 10);
      if (field == 15) stime = std::strtoull(token.c_str(), nullptr, 10);
    }
    s.cpu_s = static_cast<double>(utime + stime) /
              static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  const std::string status = slurp(dir + "/status");
  s.rss_mb = static_cast<double>(field_u64(status, "VmRSS:")) / 1024.0;
  s.peak_rss_mb = static_cast<double>(field_u64(status, "VmHWM:")) / 1024.0;
  return s;
}

NetStats read_net_stats() {
  return {net_counter("/proc/net/netstat", "IpExt:", "OutOctets"),
          net_counter("/proc/net/snmp", "Tcp:", "OutSegs")};
}

ShardProcesses::ShardProcesses(const std::string& binary, std::size_t count,
                               unsigned start_timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(start_timeout_ms);
  for (std::size_t i = 0; i < count; ++i) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
      reap_all();
      throw std::runtime_error("pipe2 failed: " +
                               std::string(std::strerror(errno)));
    }
    std::string a0 = binary;
    std::string a1 = "--listen";
    std::string a2 = "0";
    char* argv[] = {a0.data(), a1.data(), a2.data(), nullptr};
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: only async-signal-safe calls until exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv);
      ::_exit(127);
    }
    ::close(fds[1]);
    if (pid < 0) {
      ::close(fds[0]);
      reap_all();
      throw std::runtime_error("fork failed: " +
                               std::string(std::strerror(errno)));
    }
    register_child(pid);
    pids_.push_back(pid);
    const std::string line = read_line(fds[0], deadline);
    ::close(fds[0]);
    const std::string marker = "listening on 127.0.0.1:";
    const std::size_t at = line.find(marker);
    const long port =
        at == std::string::npos
            ? 0
            : std::strtol(line.c_str() + at + marker.size(), nullptr, 10);
    if (port <= 0 || port > 65535) {
      reap_all();
      throw std::runtime_error("shard server " + binary +
                               " did not report a listening port within " +
                               std::to_string(start_timeout_ms) + " ms");
    }
    endpoints_.push_back({"127.0.0.1", static_cast<std::uint16_t>(port)});
  }
}

ShardProcesses::~ShardProcesses() { reap_all(); }

void ShardProcesses::signal(std::size_t i, int sig) const {
  ::kill(pids_.at(i), sig);
}

void ShardProcesses::kill_all() const {
  for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
}

void ShardProcesses::reap_all() {
  for (const pid_t pid : pids_) {
    ::kill(pid, SIGTERM);
    ::kill(pid, SIGCONT);  // a stopped server must run to see SIGTERM
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<pid_t> left = pids_;
  while (!left.empty() && std::chrono::steady_clock::now() < deadline) {
    for (std::size_t i = 0; i < left.size();) {
      if (::waitpid(left[i], nullptr, WNOHANG) == left[i]) {
        unregister_child(left[i]);
        left.erase(left.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    if (!left.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  for (const pid_t pid : left) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    unregister_child(pid);
  }
  pids_.clear();
  endpoints_.clear();
}

}  // namespace perfbench
