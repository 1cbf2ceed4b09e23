#include "workloads.hpp"

#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>

#include "checks.hpp"
#include "gen/datasets.hpp"
#include "gen/generator.hpp"
#include "obs/metrics.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace kairos;

// --- inputs ------------------------------------------------------------------

/// The paper's cost weights (communication 4, fragmentation 100); every
/// other setting is the library default, so validation may reject.
core::KairosConfig kairos_config() {
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  return config;
}

/// The admissible Table-I applications of all six datasets: 100 generated
/// per dataset with the paper benches' seed, kept when they fit an empty
/// CRISP (§IV's filter). Fixed, so every seed draws from the same pool.
std::vector<graph::Application> crisp_pool(const platform::Platform& crisp,
                                           const core::KairosConfig& config) {
  std::vector<graph::Application> pool;
  for (const gen::DatasetKind kind : gen::kAllDatasets) {
    std::vector<graph::Application> kept = gen::filter_admissible(
        gen::make_dataset(kind, 100, 0xC0FFEE), crisp, config);
    for (graph::Application& app : kept) pool.push_back(std::move(app));
  }
  return pool;
}

/// 24-task DSP graphs at 10-45% intensity (bench_scale's mix): many fit the
/// mesh at once, so binding and mapping search a large, mostly free
/// platform.
std::vector<graph::Application> mesh_pool() {
  gen::GeneratorConfig config;
  config.target = platform::ElementType::kDsp;
  config.io_on_boundary = false;
  config.input_tasks = 2;
  config.internal_tasks = 20;
  config.output_tasks = 2;
  config.min_implementations = 1;
  config.max_implementations = 2;
  config.min_intensity = 0.10;
  config.max_intensity = 0.45;
  util::Xoshiro256 rng(0x5CA1E);
  std::vector<graph::Application> pool;
  for (int i = 0; i < 16; ++i) {
    pool.push_back(
        gen::generate_application(config, rng, "mesh-" + std::to_string(i)));
  }
  return pool;
}

platform::Platform make_mesh10k() {
  platform::BuilderConfig mesh;
  mesh.element_type = platform::ElementType::kDsp;
  // Roomy NoC, as in bench_scale: the workload measures how admission
  // scales with element count, not link contention.
  mesh.vc_capacity = 16;
  mesh.bw_capacity = 4000;
  return platform::make_mesh(100, 100, mesh);
}

/// Independent random streams derived from the run's seed, one per kind of
/// input, so changing how one is drawn leaves the others alone.
util::Xoshiro256 stream(std::uint64_t seed, std::uint64_t which) {
  util::SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ULL * (which + 1)));
  return util::Xoshiro256(mix.next());
}

struct Arrival {
  double at = 0.0;  ///< virtual time units, or host seconds after start
  std::size_t app = 0;
  double lifetime = 0.0;
};

void draw_picks_and_lifetimes(std::vector<Arrival>& arrivals,
                              std::uint64_t seed, std::size_t pool_size,
                              double mean_lifetime) {
  util::Xoshiro256 picks = stream(seed, 1);
  util::Xoshiro256 lifetimes = stream(seed, 2);
  for (Arrival& arrival : arrivals) {
    arrival.app = static_cast<std::size_t>(
        picks.uniform_int(0, static_cast<std::int64_t>(pool_size) - 1));
    arrival.lifetime = util::exponential(lifetimes, mean_lifetime);
  }
}

int worker_threads() {
  // Service workers plus the load generator's two threads (arrivals and
  // removes) number no more than the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp(cpus - 2, 1, 3);
}

/// The end-to-end timings are read from the quickest tenth of a run's
/// samples — rounds of crisp_serial, one-second slices of the open loops —
/// not from their median. Other work on a shared host slows the program in
/// bursts of seconds, sometimes for most of a run, and only ever makes it
/// slower; a change to the program moves every round and slice alike.
constexpr double kQuickest = 0.1;

template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

// --- crisp_serial ------------------------------------------------------------

/// A round is long enough that the schedule's mix of applications, which
/// the seed draws, barely moves its p99 from one seed to the next.
constexpr std::size_t kSerialRoundArrivals = 20000;
/// The untimed warm-up plays this many arrivals from the schedule's start,
/// enough to fill the caches and pools.
constexpr std::size_t kSerialWarmupArrivals = 2000;
constexpr double kSerialMeanLifetime = 20.0;  // arrivals per lifetime
constexpr double kSnapshotCadenceMs = 100.0;

struct VirtualDeparture {
  double at;
  core::AppHandle handle;
  std::uint64_t request;
  bool operator>(const VirtualDeparture& o) const {
    return at != o.at ? at > o.at : handle > o.handle;
  }
};

}  // namespace

bool run_crisp_serial(const Options& options, Run& run) {
  Spans spans(options.trace);
  platform::Platform crisp = platform::make_crisp_platform();
  const core::KairosConfig config = kairos_config();
  const std::vector<graph::Application> pool = crisp_pool(crisp, config);
  if (pool.empty()) return false;
  core::ResourceManager manager(crisp, config);
  HopOracle oracle(crisp);

  // One round: Poisson arrivals at one per virtual time unit, so the offered
  // load of kSerialMeanLifetime applications saturates the platform.
  std::vector<Arrival> schedule(kSerialRoundArrivals);
  {
    util::Xoshiro256 gaps = stream(options.seed, 0);
    double t = 0.0;
    for (Arrival& arrival : schedule) {
      t += util::exponential(gaps, 1.0);
      arrival.at = t;
    }
    draw_picks_and_lifetimes(schedule, options.seed, pool.size(),
                             kSerialMeanLifetime);
  }

  // Spans are recorded in the measured rounds only, so the warm-up's spans
  // do not sit in the heap the set-up figures read.
  bool tracing = false;
  std::uint64_t next_request = 0;
  Clock::time_point last_snapshot;
  const auto timed_remove = [&](const VirtualDeparture& departure) {
    const Clock::time_point start = Clock::now();
    const util::VoidResult removed = manager.remove(departure.handle);
    const Clock::time_point end = Clock::now();
    run.remove_ms.add(ms_between(start, end));
    if (tracing) spans.add(0, "core.remove", start, end, 0, departure.request);
    ++run.attempted;
    if (!removed.ok()) ++run.failed;
  };
  // Plays the whole schedule once from an empty platform, ending empty
  // again.
  struct RoundResult {
    long admitted = 0;
    double hops_sum = 0.0;
    std::array<long, core::kPhaseCount> rejected{};
    double check_ms = 0.0;  ///< spent in the benchmark's checks
  };
  // admit() call and validation times of the round being played (measured
  // rounds only), reused round after round.
  Samples round_latency, round_validation;
  const auto play_round = [&](std::size_t arrivals, bool measured) {
    RoundResult result;
    MinHeap<VirtualDeparture> departures;
    for (std::size_t i = 0; i < arrivals; ++i) {
      const Arrival& arrival = schedule[i];
      while (!departures.empty() && departures.top().at <= arrival.at) {
        timed_remove(departures.top());
        departures.pop();
      }
      const std::uint64_t request = ++next_request;
      const graph::Application& app = pool[arrival.app];
      const Clock::time_point start = Clock::now();
      const core::AdmissionReport report = manager.admit(app);
      const Clock::time_point end = Clock::now();
      const double call_ms = ms_between(start, end);
      if (tracing) spans.add(0, "core.admit", start, end, 0, request);
      ++run.attempted;
      if (report.admitted) {
        ++result.admitted;
        result.hops_sum += report.average_hops;
        departures.push({arrival.at + arrival.lifetime, report.handle,
                         request});
        const Clock::time_point check_start = Clock::now();
        run.check(check_layout(crisp, oracle, app, report.layout));
        result.check_ms += ms_between(check_start, Clock::now());
      } else {
        ++result.rejected[static_cast<std::size_t>(report.failed_phase)];
      }
      if (measured) {
        ++run.decisions;
        round_latency.add(call_ms);
        if (reached_validation(report)) {
          round_validation.add(report.times.validation_ms);
        }
        run.record_phases(report);
        run.admit_overhead_ms.add(call_ms - report.times.total_ms());
      }
      if (tracing && ms_between(last_snapshot, end) >= kSnapshotCadenceMs) {
        last_snapshot = Clock::now();
        const platform::Platform copy = manager.snapshot_platform();
        const Clock::time_point taken = Clock::now();
        run.snapshot_ms.add(ms_between(last_snapshot, taken));
        spans.add(0, "platform.snapshot", last_snapshot, taken, 0, 0);
      }
    }
    const Clock::time_point check_start = Clock::now();
    run.check(check_capacity(crisp));
    run.check(check_bookkeeping(manager));
    result.check_ms += ms_between(check_start, Clock::now());
    while (!departures.empty()) {
      timed_remove(departures.top());
      departures.pop();
    }
    const Clock::time_point drained = Clock::now();
    run.check(check_conservation(manager));
    result.check_ms += ms_between(drained, Clock::now());
    return result;
  };

  play_round(kSerialWarmupArrivals, false);
  run.setup_s = process_age_s();
  run.rss_setup_mb = rss_mb("VmRSS");
  // Every round repeats the decisions of the first, so each is one sample of
  // the end-to-end figures, read from the quickest rounds (kQuickest).
  constexpr std::size_t kMaxRounds = 4096;
  Samples round_rate, round_p50, round_p99, round_validation_p50;
  run.heap_setup_mb = malloc_in_use_mb();
  round_latency.reserve(schedule.size());
  round_validation.reserve(schedule.size());
  for (Samples* rounds :
       {&round_rate, &round_p50, &round_p99, &round_validation_p50}) {
    rounds->reserve(kMaxRounds);
  }
  run.bench_heap_mb = malloc_in_use_mb() - run.heap_setup_mb;
  tracing = spans.enabled();
  RoundResult reference;
  const Clock::time_point measuring = Clock::now();
  last_snapshot = measuring;
  for (int round = 1; ms_between(measuring, Clock::now()) <
                          options.seconds * 1000.0 &&
                      round_rate.count() < kMaxRounds;
       ++round) {
    round_latency.clear();
    round_validation.clear();
    const Clock::time_point start = Clock::now();
    const RoundResult result = play_round(schedule.size(), true);
    const double round_s =
        (ms_between(start, Clock::now()) - result.check_ms) / 1000.0;
    // The caches the program keeps between rounds fill and are cleared in a
    // cycle of several rounds, so the figure is their highest reading at a
    // round's end, not wherever the cycle stood when the time ran out. A
    // traced run's spans sit in the heap until close(), so it reads the
    // heap once, after them.
    if (!tracing) {
      run.heap_in_use_mb = std::max(run.heap_in_use_mb, run.program_heap_mb());
    }
    round_rate.add(static_cast<double>(schedule.size()) / round_s);
    round_p50.add(round_latency.quantile(0.50));
    round_p99.add(round_latency.quantile(0.99));
    round_validation_p50.add(round_validation.quantile(0.50));
    run.hops_sum += result.hops_sum;
    run.hops_count += result.admitted;
    if (round == 1) {
      reference = result;
      run.admitted = result.admitted;
      run.rejected = result.rejected;
    } else if (result.admitted != reference.admitted ||
               result.hops_sum != reference.hops_sum ||
               result.rejected != reference.rejected) {
      run.check("round " + std::to_string(round) + " admitted " +
                std::to_string(result.admitted) + " (hops " +
                std::to_string(result.hops_sum) + "), the first round " +
                std::to_string(reference.admitted) + " (hops " +
                std::to_string(reference.hops_sum) +
                "), or rejected in other phases");
    }
  }
  run.decisions_per_s = round_rate.quantile(1.0 - kQuickest);
  run.decision_p50_ms = round_p50.quantile(kQuickest);
  run.decision_p99_ms = round_p99.quantile(kQuickest);
  run.validation_p50_ms = round_validation_p50.quantile(0.5);
  if (!spans.close(options.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_path.c_str());
  }
  if (tracing) run.heap_in_use_mb = run.program_heap_mb();
  run.peak_rss_mb = rss_mb("VmHWM");
  run.rss_growth_mb = rss_mb("VmRSS") - run.rss_setup_mb;
  return true;
}

// --- the open loops ----------------------------------------------------------

namespace {

struct OpenLoop {
  double rate_per_s = 0.0;       ///< Poisson arrivals per host second
  double mean_lifetime_s = 0.0;  ///< exponential, from admission to remove
  double warmup_s = 0.0;         ///< untimed lead-in on the same schedule
};

/// A run is invalid, not slow, when its requests left this late (p99) or
/// this many requests were unsent or unsettled when the window closed.
constexpr double kMaxLatenessP99Ms = 50.0;
constexpr std::size_t kMaxBacklog = 64;
/// How long after the window a request may take to settle before it counts
/// as failed.
constexpr double kSettleGraceS = 20.0;
/// Latency quantiles are taken per slice of this many consecutive measured
/// requests (one second of crisp_service), and the run reports those of its
/// quickest slices (kQuickest): a burst of other work on the machine spoils
/// some slices, not the run. Each slice still has ten samples beyond its p99.
constexpr std::size_t kSliceRequests = 1000;
/// How many of the generator's recent submit() calls are kept to tell how
/// long a late request was held up by them; more than fit in
/// kMaxLatenessP99Ms at the workloads' rates.
constexpr std::size_t kSubmitHistory = 256;
/// The generator stops sleeping this long before a request is due.
constexpr Clock::duration kSpinAhead = std::chrono::microseconds(200);

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct HostDeparture {
  Clock::time_point at;
  core::AppHandle handle;
  std::uint64_t request;
  bool operator>(const HostDeparture& o) const {
    return at != o.at ? at > o.at : handle > o.handle;
  }
};

/// Removes admitted applications when their lifetimes end, on a thread of
/// its own, so a remove() waiting for a commit lock never delays an
/// arrival.
class Remover {
 public:
  Remover(service::AdmissionService& service, Spans& spans)
      : service_(service), spans_(spans), thread_([this] { loop(); }) {}
  Remover(const Remover&) = delete;
  Remover& operator=(const Remover&) = delete;
  ~Remover() { stop(); }

  void schedule(HostDeparture departure) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      due_.push(departure);
    }
    wake_.notify_one();
  }

  /// Joins the thread; later departures stay queued for remove_all().
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

  /// After stop(): removes everything still queued, from the calling thread.
  void remove_all() {
    while (!due_.empty()) {
      remove(due_.top());
      due_.pop();
    }
  }

  Mean remove_ms;
  long attempted = 0;
  long failed = 0;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_) {
      if (due_.empty()) {
        wake_.wait(lock);
        continue;
      }
      const HostDeparture next = due_.top();
      if (Clock::now() < next.at) {
        wake_.wait_until(lock, next.at);
        continue;
      }
      due_.pop();
      lock.unlock();
      remove(next);
      lock.lock();
    }
  }

  void remove(const HostDeparture& departure) {
    const Clock::time_point begin = Clock::now();
    const util::VoidResult removed = service_.remove(departure.handle);
    const Clock::time_point end = Clock::now();
    remove_ms.add(ms_between(begin, end));
    spans_.add(0, "service.remove", begin, end, 0, departure.request);
    ++attempted;
    if (!removed.ok()) ++failed;
  }

  service::AdmissionService& service_;
  Spans& spans_;
  std::mutex mutex_;
  std::condition_variable wake_;
  MinHeap<HostDeparture> due_;
  bool stopping_ = false;
  std::thread thread_;  ///< last: starts once everything it uses exists
};

struct Pending {
  std::size_t index = 0;  ///< into the schedule
  std::future<core::AdmissionReport> future;
  Clock::time_point submit_start;
  Clock::time_point submitted;
  /// How much of its lateness the generator spent inside earlier submit()
  /// calls: the program held it up, so that part counts as latency.
  Clock::duration held_up{};
  std::uint64_t request_id = 0;
  std::uint64_t span = 0;  ///< the reserved "request" span
};

/// Arrivals: a Poisson process conditioned on its count, so every run of a
/// given length offers exactly the same number of requests. At least 1000
/// are measured.
std::vector<Arrival> open_loop_schedule(const OpenLoop& loop,
                                        const Options& options,
                                        std::size_t pool_size,
                                        std::size_t& warmup_count,
                                        double& window_s) {
  warmup_count =
      static_cast<std::size_t>(loop.rate_per_s * loop.warmup_s + 0.5);
  const std::size_t measured_count = std::max<std::size_t>(
      1000, static_cast<std::size_t>(loop.rate_per_s * options.seconds + 0.5));
  window_s = static_cast<double>(measured_count) / loop.rate_per_s;
  std::vector<Arrival> schedule(warmup_count + measured_count);
  util::Xoshiro256 times = stream(options.seed, 0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i].at =
        i < warmup_count
            ? times.uniform_real(0.0, loop.warmup_s)
            : times.uniform_real(loop.warmup_s, loop.warmup_s + window_s);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  draw_picks_and_lifetimes(schedule, options.seed, pool_size,
                           loop.mean_lifetime_s);
  return schedule;
}

bool run_open_loop(const Options& options, const OpenLoop& loop,
                   const std::function<platform::Platform()>& make_platform,
                   const std::vector<graph::Application>& pool,
                   platform::Platform& platform, Run& run) {
  run.open_loop = true;
  Spans spans(options.trace);
  core::ResourceManager manager(platform, kairos_config());
  service::ServiceConfig service_config;
  service_config.threads = worker_threads();
  service::AdmissionService service(manager, service_config);
  HopOracle oracle(platform);
  std::size_t warmup_count = 0;
  double window_s = 0.0;
  const std::vector<Arrival> schedule =
      open_loop_schedule(loop, options, pool.size(), warmup_count, window_s);
  Remover remover(service, spans);
  // Sleeps of this thread end within microseconds of their deadline, not
  // the default 50 us timer slack later.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  // The benchmark's own buffers, sized for the whole run up front.
  run.heap_setup_mb = malloc_in_use_mb();
  const std::size_t measured_count = schedule.size() - warmup_count;
  std::vector<Pending> outstanding;  // in submission order
  outstanding.reserve(1024);
  // The generator's most recent submit() calls, oldest overwritten first.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> submit_calls(
      kSubmitHistory);
  std::vector<std::uint64_t> request_ids;  // checked for repeats at the end
  request_ids.reserve(schedule.size());
  // Latency of each measured request, by schedule position.
  std::vector<double> latency_ms(measured_count, 0.0);
  Samples validation_ran_ms;
  validation_ran_ms.reserve(measured_count);
  run.service_overhead_ms.reserve(measured_count);
  run.lateness_ms.reserve(schedule.size());
  run.bench_heap_mb = malloc_in_use_mb() - run.heap_setup_mb;

  const Clock::time_point start = Clock::now();
  const Clock::time_point window_start = start + seconds(loop.warmup_s);
  const Clock::time_point window_end = window_start + seconds(window_s);
  const Clock::time_point deadline = window_end + seconds(kSettleGraceS);
  const auto due = [&](std::size_t i) {
    return start + seconds(schedule[i].at);
  };

  std::size_t next = 0;
  long settled = 0;
  bool window_closed = false;
  Clock::time_point last_settle = window_start;
  Clock::time_point last_snapshot = start;

  const auto settle = [&](Pending& pending, Clock::time_point seen_at) {
    ++settled;
    const Arrival& arrival = schedule[pending.index];
    core::AdmissionReport report;
    try {
      report = pending.future.get();
    } catch (const std::exception&) {
      ++run.failed;
      return;
    }
    if (report.reason == "service stopped") {
      ++run.failed;
      return;
    }
    request_ids.push_back(report.request_id);
    spans.add(pending.span, "request", due(pending.index), seen_at, 0,
              pending.request_id);
    const bool measured = pending.index >= warmup_count;
    if (measured) {
      ++run.decisions;
      last_settle = std::max(last_settle, seen_at);
      run.record_phases(report);
      if (reached_validation(report)) {
        validation_ran_ms.add(report.times.validation_ms);
      }
      if (!report.admitted) {
        ++run.rejected[static_cast<std::size_t>(report.failed_phase)];
      }
      // From when the request went out, less the part of its lateness the
      // program caused by holding the generator in submit(): the stalls of
      // the generator's own thread are not the program's latency, and
      // lateness_p99 bounds them (kMaxLatenessP99Ms).
      latency_ms[pending.index - warmup_count] =
          ms_between(pending.submit_start - pending.held_up, seen_at);
      run.service_overhead_ms.add(ms_between(pending.submit_start, seen_at) -
                                  report.times.total_ms());
    }
    if (!report.admitted) return;
    if (measured) {
      ++run.admitted;
      run.hops_sum += report.average_hops;
      ++run.hops_count;
    }
    run.check(check_layout(platform, oracle, pool[arrival.app], report.layout));
    remover.schedule({seen_at + seconds(arrival.lifetime), report.handle,
                      pending.request_id});
  };

  // The generator polls instead of blocking on one future, so a slow request
  // does not hold up noticing the ones behind it that settled first.
  for (;;) {
    bool progressed = false;
    Clock::time_point now = Clock::now();
    if (next < schedule.size() && due(next) <= now) {
      if (next == warmup_count) {
        run.setup_s = process_age_s();
        run.rss_setup_mb = rss_mb("VmRSS");
      }
      Pending pending;
      pending.index = next;
      pending.span = spans.reserve();
      pending.submit_start = Clock::now();
      pending.future =
          service.submit(pool[schedule[next].app], &pending.request_id);
      pending.submitted = Clock::now();
      for (const auto& [call_start, call_end] : submit_calls) {
        const Clock::time_point from = std::max(call_start, due(next));
        const Clock::time_point to = std::min(call_end, pending.submit_start);
        if (from < to) pending.held_up += to - from;
      }
      submit_calls[next % kSubmitHistory] = {pending.submit_start,
                                             pending.submitted};
      run.lateness_ms.add(ms_between(due(next), pending.submit_start));
      run.submit_us.add(
          ms_between(pending.submit_start, pending.submitted) * 1000.0);
      spans.add(0, "service.submit", pending.submit_start, pending.submitted,
                pending.span, pending.request_id);
      ++run.attempted;
      outstanding.push_back(std::move(pending));
      ++next;
      progressed = true;
    }
    const auto first_ready = std::stable_partition(
        outstanding.begin(), outstanding.end(), [](const Pending& pending) {
          return pending.future.wait_for(std::chrono::seconds(0)) !=
                 std::future_status::ready;
        });
    if (first_ready != outstanding.end()) {
      const Clock::time_point seen_at = Clock::now();
      for (auto it = first_ready; it != outstanding.end(); ++it) {
        settle(*it, seen_at);
      }
      outstanding.erase(first_ready, outstanding.end());
      progressed = true;
    }
    now = Clock::now();
    if (!window_closed && now >= window_end) {
      window_closed = true;
      const std::size_t backlog = schedule.size() - next + outstanding.size();
      if (backlog > kMaxBacklog) {
        std::fprintf(stderr,
                     "perfbench: invalid run: %zu requests unsent or "
                     "unsettled when the measured window closed\n",
                     backlog);
        return false;
      }
    }
    if (spans.enabled() && now < window_end &&
        ms_between(last_snapshot, now) >= kSnapshotCadenceMs) {
      last_snapshot = now;
      const platform::Platform copy = manager.snapshot_platform();
      const Clock::time_point taken = Clock::now();
      run.snapshot_ms.add(ms_between(now, taken));
      spans.add(0, "platform.snapshot", now, taken, 0, 0);
    }
    if (next == schedule.size() && outstanding.empty()) break;
    if (now >= deadline) {
      run.failed += static_cast<long>(outstanding.size());
      break;
    }
    if (progressed) continue;
    // Idle: with requests in flight, keep polling so their settle times are
    // seen within microseconds; with none, sleep until just before the next
    // arrival and leave the CPU to the workers.
    if (outstanding.empty() && next < schedule.size() &&
        due(next) - now > kSpinAhead) {
      std::this_thread::sleep_until(due(next) - kSpinAhead);
    } else {
      std::this_thread::yield();
    }
  }
  if (run.lateness_ms.quantile(0.99) > kMaxLatenessP99Ms) {
    std::fprintf(stderr,
                 "perfbench: invalid run: requests left %.3f ms late at p99 "
                 "(bound %.1f ms)\n",
                 run.lateness_ms.quantile(0.99), kMaxLatenessP99Ms);
    return false;
  }
  run.decisions_per_s =
      static_cast<double>(run.decisions) /
      std::chrono::duration<double>(last_settle - window_start).count();
  Samples slice_p50, slice_p99;
  const std::size_t slices =
      std::max<std::size_t>(1, latency_ms.size() / kSliceRequests);
  for (std::size_t s = 0; s < slices; ++s) {
    Samples slice;
    const std::size_t end = s + 1 == slices
                                ? latency_ms.size()
                                : (s + 1) * latency_ms.size() / slices;
    for (std::size_t i = s * latency_ms.size() / slices; i < end; ++i) {
      slice.add(latency_ms[i]);
    }
    slice_p50.add(slice.quantile(0.50));
    slice_p99.add(slice.quantile(0.99));
  }
  run.decision_p50_ms = slice_p50.quantile(kQuickest);
  run.decision_p99_ms = slice_p99.quantile(kQuickest);
  run.validation_p50_ms = validation_ran_ms.quantile(0.5);
  std::sort(request_ids.begin(), request_ids.end());
  for (std::size_t i = 1; i < request_ids.size(); ++i) {
    if (request_ids[i] == request_ids[i - 1]) ++run.failed;  // seen twice
  }

  // Quiesce point: every request settled; removes stop, so the admitted
  // applications still live stay put while the checks read them.
  service.drain();
  remover.stop();
  if (!spans.close(options.trace_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_path.c_str());
  }
  run.peak_rss_mb = rss_mb("VmHWM");
  run.rss_growth_mb = rss_mb("VmRSS") - run.rss_setup_mb;
  run.heap_in_use_mb = run.program_heap_mb();
  const obs::MetricsSnapshot metrics = obs::Registry::global().snapshot();
  const auto counter = [&metrics](const char* name) -> std::int64_t {
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  };
  run.commit_conflicts = counter("service.commit_conflicts");
  run.fallbacks = counter("service.fallbacks");
  run.batches = counter("service.batches");
  run.cross_shard_commits = counter("service.cross_shard_commits");
  run.requests_per_batch =
      run.batches > 0
          ? static_cast<double>(settled) / static_cast<double>(run.batches)
          : 0.0;

  run.check(check_capacity(platform));
  run.check(check_bookkeeping(manager));
  run.check(check_commit_log(service.commit_log(), manager.live_handles(),
                             platform, make_platform()));
  remover.remove_all();
  service.drain();
  run.check(check_conservation(manager));
  service.stop();
  run.remove_ms = remover.remove_ms;
  run.attempted += remover.attempted;
  run.failed += remover.failed;
  return true;
}

}  // namespace

bool run_crisp_service(const Options& options, Run& run) {
  platform::Platform crisp = platform::make_crisp_platform();
  const std::vector<graph::Application> pool =
      crisp_pool(crisp, kairos_config());
  if (pool.empty()) return false;
  OpenLoop loop;
  loop.rate_per_s = 1000.0;
  loop.mean_lifetime_s = 0.05;
  loop.warmup_s = 1.0;
  return run_open_loop(
      options, loop, [] { return platform::make_crisp_platform(); }, pool,
      crisp, run);
}

bool run_mesh10k_service(const Options& options, Run& run) {
  platform::Platform mesh = make_mesh10k();
  const std::vector<graph::Application> pool = mesh_pool();
  OpenLoop loop;
  loop.rate_per_s = 100.0;
  loop.mean_lifetime_s = 1.0;
  loop.warmup_s = 1.0;
  return run_open_loop(options, loop, make_mesh10k, pool, mesh, run);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "crisp_serial", "crisp_service", "mesh10k_service"};
  return names;
}

}  // namespace perfbench
