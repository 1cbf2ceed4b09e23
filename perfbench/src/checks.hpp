// The benchmark's correctness checks. Each returns an empty string when the
// check holds and a description of the first violation otherwise; a run
// that sees any violation reports "correct": false.
//
// Every check reads the program only through its public surface (the
// platform's element/link state, ResourceManager::live_handles /
// allocations_of / live_count, AdmissionService::commit_log), so a check
// cannot agree with the program because it shares its code.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/layout.hpp"
#include "core/resource_manager.hpp"
#include "graph/application.hpp"
#include "noc/router.hpp"
#include "platform/platform.hpp"
#include "service/admission_service.hpp"

namespace perfbench {

/// Hop distances by the benchmark's own breadth-first search over the
/// directed links, stopping at the destination. The visit marks are
/// generation-stamped, so a query costs only the nodes it reaches.
class HopOracle {
 public:
  explicit HopOracle(const kairos::platform::Platform& platform);

  /// Fewest directed links from `from` to `to`; -1 when unreachable.
  int distance(kairos::platform::ElementId from,
               kairos::platform::ElementId to);

 private:
  const kairos::platform::Platform& platform_;
  std::vector<std::uint32_t> mark_;
  std::vector<int> depth_;
  std::vector<std::int32_t> frontier_;
  std::uint32_t generation_ = 0;
};

/// A route claimed for a channel from `src` to `dst`: no shorter than the
/// BFS distance, starting at `src`, ending at `dst`, each link starting
/// where the previous one ended.
std::string check_route(const kairos::platform::Platform& platform,
                        HopOracle& oracle, kairos::platform::ElementId src,
                        kairos::platform::ElementId dst,
                        const kairos::noc::Route& route);

/// check_route for every channel of an admitted layout, with the endpoints
/// taken from the placements of the channel's source and destination task.
std::string check_layout(const kairos::platform::Platform& platform,
                         HopOracle& oracle,
                         const kairos::graph::Application& app,
                         const kairos::core::ExecutionLayout& layout);

/// No element or link holds more than its capacity, or a negative amount.
std::string check_capacity(const kairos::platform::Platform& platform);

/// Per element, the sum of allocations_of() over the live applications
/// equals the platform's used vector. Call at a quiesce point.
std::string check_bookkeeping(const kairos::core::ResourceManager& manager);

/// After the last remove: every element and link holds zero used resources
/// and hosts no task, and the manager has no live application.
std::string check_conservation(const kairos::core::ResourceManager& manager);

/// Replays the commit records of the live handles, in handle order, onto
/// `fresh` (an empty platform of the same topology) and compares the result
/// with `live`: element used vectors, task counts, link channels and
/// bandwidth. Call at a quiesce point.
std::string check_commit_log(std::vector<kairos::service::CommitRecord> log,
                             const std::vector<kairos::core::AppHandle>& live,
                             const kairos::platform::Platform& live_platform,
                             kairos::platform::Platform fresh);

}  // namespace perfbench
