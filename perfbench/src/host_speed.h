// Host-speed calibration for the RTL-to-verdict benchmark.
//
// On a shared VM the speed of a vCPU drifts by 20-30% from second to
// second with what the other tenants of the host run (hyper-thread
// siblings, shared caches), and that drift, not the program, set the
// run-to-run spread of every timing: six runs of one binary on one seed
// spread 1714-2069 ops/s on rtl_audit. The benchmark therefore times a
// fixed kernel of its own (string hashing, sorting and a small float
// matrix product; no gnn4ip code) on the thread and CPU that runs the
// ops, at regular points of the run, and reports every timing scaled to
// the reference host speed:
//
//   reported time = measured time x kReferenceMs / median kernel time
//
// The kernel runs between ops, never inside one, and its time is left
// out of the timed phase's wall time. A kernel that streams a buffer
// larger than the L2 cache was tried beside it and tracked the ops'
// slow-downs no better than measuring nothing; perfbench/README.md has the
// spreads with and without the scaling.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// Kernel time, in ms, of the host the bounds were calibrated on
  /// (4-vCPU Intel Xeon VM, gcc 12.2, Release).
  static constexpr double kReferenceMs = 0.14;

  HostSpeed();

  /// Time the kernel once, on warm caches, and keep the sample.
  void sample();
  void sample(int count) {
    for (int i = 0; i < count; ++i) sample();
  }
  /// Drop the samples and the time spent taking them.
  void clear();

  [[nodiscard]] double median_ms() const;
  /// Factor that takes a time measured now to the reference host speed.
  [[nodiscard]] double scale() const { return kReferenceMs / median_ms(); }
  /// Wall time spent in sample() since clear(), in seconds.
  [[nodiscard]] double spent_s() const { return spent_s_; }

 private:
  double kernel();

  std::vector<std::string> words_;
  std::vector<float> a_, b_;
  std::vector<double> samples_;
  double spent_s_ = 0;
  float sink_ = 0;
};

}  // namespace perfbench
