// What one benchmark run measures, and the small tools that measure it:
// sample series, the process's resident set and age, and the benchmark's
// spans, kept in a tracer of their own and written as Chrome trace JSON.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/resource_manager.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace JSON, written when tracing
};

/// A series of measurements, kept whole so quantiles are exact. Reserve
/// the capacity up front where the benchmark's own memory must not grow
/// during the measured phase.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void reserve(std::size_t n) { values_.reserve(n); }
  void clear() { values_.clear(); }
  std::size_t count() const { return values_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]; 0 for an empty series.
  double quantile(double q) const;

 private:
  std::vector<double> values_;
};

/// A running mean, for series only their mean is wanted of.
class Mean {
 public:
  void add(double value) {
    sum_ += value;
    ++count_;
  }
  double value() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  double sum_ = 0.0;
  long count_ = 0;
};

/// The spans the benchmark records around each public call it makes into
/// the library: name, start, end, the span that caused it and the request
/// it belongs to (the "id", "parent" and "request" args of each event).
/// They go to a tracer of their own, not the global one, so the library's
/// spans stay out; it keeps the most recent kCapacity spans. close() writes
/// them as Chrome trace JSON and frees them, so the memory figures read
/// after it do not count them. A disabled or closed log records nothing and
/// hands out id 0. Safe to use from several threads.
class Spans {
 public:
  static constexpr std::size_t kCapacity = 65536;

  explicit Spans(bool enabled);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// An id for a span whose children are recorded before it ends.
  std::uint64_t reserve() { return enabled() ? ++last_id_ : 0; }
  /// Records a span under a reserved id (0: take a fresh one).
  void add(std::uint64_t id, const char* name, Clock::time_point start,
           Clock::time_point end, std::uint64_t parent,
           std::uint64_t request);
  /// Writes the spans recorded so far to `path` and stops recording.
  bool close(const std::string& path);

 private:
  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> last_id_{0};
  Clock::time_point origin_;
  kairos::obs::Tracer tracer_;
};

/// Resident set of this process in MiB: "VmRSS" (now) or "VmHWM" (peak).
double rss_mb(const char* field);

/// Bytes the allocator has handed out and not had back, in MiB (all arenas
/// plus mmapped blocks). Unlike the resident set, this does not count the
/// freed memory an arena keeps, which depends on thread interleaving.
double malloc_in_use_mb();

/// True iff the decision ran the validation phase: it was admitted, or
/// validation rejected it.
bool reached_validation(const kairos::core::AdmissionReport& report);

/// Seconds since this process was started by the kernel.
double process_age_s();

/// Everything one workload run reports. Counts cover the measured phase
/// unless noted; rounds, operation counts and violations cover the run.
struct Run {
  bool open_loop = false;

  // --- end to end ----------------------------------------------------------
  double setup_s = 0.0;
  long decisions = 0;
  double decisions_per_s = 0.0;
  double decision_p50_ms = 0.0;
  double decision_p99_ms = 0.0;
  /// Applications admitted in one round of the schedule (the measured
  /// window of the open loops; each identical round of crisp_serial).
  long admitted = 0;
  double hops_sum = 0.0;  ///< AdmissionReport::average_hops, admitted only
  long hops_count = 0;
  /// Bytes the program holds in malloc, less the benchmark's own buffers
  /// (bench_heap_mb): at the end of the measured phase, or in an untraced
  /// crisp_serial the highest reading at the end of a round.
  double heap_in_use_mb = 0.0;

  // --- per layer -----------------------------------------------------------
  Mean binding_ms, mapping_ms, routing_ms, validation_ms;
  /// Median validation time of the decisions that reached validation.
  double validation_p50_ms = 0.0;
  Mean admit_overhead_ms;  ///< admit() call minus its phases (serial)
  Mean remove_ms;
  Mean snapshot_ms;  ///< snapshot_platform() at a fixed cadence (traced)
  Mean submit_us;
  Samples service_overhead_ms;  ///< settle latency minus the phase total
  Samples lateness_ms;
  /// Measured decisions rejected in each phase (one round of crisp_serial).
  std::array<long, kairos::core::kPhaseCount> rejected{};
  double rss_setup_mb = 0.0;
  double rss_growth_mb = 0.0;
  double peak_rss_mb = 0.0;
  double heap_setup_mb = 0.0;  ///< after construction, own buffers excluded
  /// The benchmark's own sample buffers, reserved before the measured
  /// phase and not grown during it.
  double bench_heap_mb = 0.0;
  std::int64_t commit_conflicts = 0, fallbacks = 0, batches = 0,
               cross_shard_commits = 0;
  double requests_per_batch = 0.0;

  // --- operations and correctness -------------------------------------------
  long attempted = 0;  ///< decisions and removes, warm-up and drain included
  long failed = 0;
  std::vector<std::string> violations;

  /// Records a failed check; empty `error` means the check held.
  void check(const std::string& error) {
    if (!error.empty()) violations.push_back(error);
  }
  /// Phase times of one measured decision.
  void record_phases(const kairos::core::AdmissionReport& report);
  /// Heap in use now, less the benchmark's own buffers.
  double program_heap_mb() const;
};

}  // namespace perfbench
