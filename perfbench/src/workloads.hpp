// The three workloads. Each builds its platform, application pool and
// schedule from the seed, runs for the requested time, checks the program's
// outputs and fills a Run. They return false only when the run could not be
// set up or was invalid as a measurement (the load generator fell behind its
// schedule, or the service's backlog grew); a failed correctness check is
// recorded in Run::violations instead.
#pragma once

#include <string>
#include <vector>

#include "record.hpp"

namespace perfbench {

/// One caller running admit()/remove() on CRISP in virtual time.
bool run_crisp_serial(const Options& options, Run& run);

/// Open loop through AdmissionService on CRISP, host-time schedule.
bool run_crisp_service(const Options& options, Run& run);

/// Open loop through AdmissionService on a cold 100x100 DSP mesh.
bool run_mesh10k_service(const Options& options, Run& run);

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
