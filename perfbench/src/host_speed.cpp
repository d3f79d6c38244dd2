#include "host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_map>

namespace perfbench {

namespace {
using Clock = std::chrono::steady_clock;
constexpr int kWords = 400;
constexpr int kRows = 64, kInner = 64, kCols = 16;
}  // namespace

HostSpeed::HostSpeed()
    : a_(static_cast<std::size_t>(kRows * kInner)),
      b_(static_cast<std::size_t>(kInner * kCols)) {
  std::uint64_t x = 88172645463325252ULL;  // xorshift64: fixed inputs
  words_.reserve(kWords);
  for (int i = 0; i < kWords; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    words_.push_back("sig_" + std::to_string(x % 100000));
  }
  for (std::size_t i = 0; i < a_.size(); ++i) {
    a_[i] = static_cast<float>(i % 7) * 0.25f;
  }
  for (std::size_t i = 0; i < b_.size(); ++i) {
    b_[i] = static_cast<float>(i % 5) * 0.5f;
  }
  samples_.reserve(4096);
}

/// The mix of the front end's work: a symbol table, a sort of names and
/// a dense layer.
double HostSpeed::kernel() {
  const Clock::time_point t0 = Clock::now();
  std::unordered_map<std::string, int> table;
  for (const std::string& w : words_) table[w] += 1;
  std::vector<std::string> sorted(words_);
  std::sort(sorted.begin(), sorted.end());
  float acc = 0;
  for (int i = 0; i < kRows; ++i) {
    for (int k = 0; k < kCols; ++k) {
      float s = 0;
      for (int j = 0; j < kInner; ++j) {
        s += a_[static_cast<std::size_t>(i * kInner + j)] *
             b_[static_cast<std::size_t>(j * kCols + k)];
      }
      acc += s;
    }
  }
  sink_ += acc + static_cast<float>(table.size() + sorted.size());
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void HostSpeed::sample() {
  const Clock::time_point t0 = Clock::now();
  // The first pass only warms the caches the op before left cold, so the
  // sample measures the CPU, not the program's memory footprint.
  kernel();
  samples_.push_back(kernel());
  spent_s_ += std::chrono::duration<double>(Clock::now() - t0).count();
}

void HostSpeed::clear() {
  samples_.clear();
  spent_s_ = 0;
}

double HostSpeed::median_ms() const {
  if (samples_.empty()) return kReferenceMs;
  std::vector<double> v = samples_;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace perfbench
