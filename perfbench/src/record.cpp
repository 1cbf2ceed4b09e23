#include "record.hpp"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Spans::Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  tracer_.set_capacity(kCapacity);
}

void Spans::add(std::uint64_t id, const char* name, Clock::time_point start,
                Clock::time_point end, std::uint64_t parent,
                std::uint64_t request) {
  if (!enabled()) return;
  if (id == 0) id = ++last_id_;
  using Micros = std::chrono::duration<double, std::micro>;
  kairos::obs::TraceEvent event;
  event.name = name;
  event.ts_us = Micros(start - origin_).count();
  event.dur_us = Micros(end - start).count();
  event.tid = kairos::obs::current_thread_id();
  event.args = {{"id", std::to_string(id)},
                {"parent", std::to_string(parent)},
                {"request", std::to_string(request)}};
  tracer_.record(std::move(event));
}

bool Spans::close(const std::string& path) {
  if (!enabled_.exchange(false)) return true;
  std::ofstream out(path);
  tracer_.write_json(out);
  tracer_.drain();
  return static_cast<bool>(out);
}

double rss_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    std::istringstream fields(line.substr(prefix.size()));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

double malloc_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double process_age_s() {
  // Field 22 of /proc/self/stat is the start time in clock ticks after boot;
  // the command name before it may hold spaces, so count from its ')'.
  std::ifstream stat_file("/proc/self/stat");
  std::string text((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  for (int i = 3; i < 22 && fields >> field; ++i) {
  }
  unsigned long long start_ticks = 0;
  fields >> start_ticks;
  timespec now{};
  clock_gettime(CLOCK_BOOTTIME, &now);
  const double boot_s =
      static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
  return boot_s - static_cast<double>(start_ticks) /
                      static_cast<double>(sysconf(_SC_CLK_TCK));
}

bool reached_validation(const kairos::core::AdmissionReport& report) {
  return report.admitted ||
         report.failed_phase == kairos::core::Phase::kValidation;
}

double Run::program_heap_mb() const {
  return malloc_in_use_mb() - bench_heap_mb;
}

void Run::record_phases(const kairos::core::AdmissionReport& report) {
  binding_ms.add(report.times.binding_ms);
  mapping_ms.add(report.times.mapping_ms);
  routing_ms.add(report.times.routing_ms);
  validation_ms.add(report.times.validation_ms);
}

}  // namespace perfbench
