#include "checks.hpp"

#include <algorithm>
#include <set>

namespace perfbench {

using kairos::platform::ElementId;
using kairos::platform::LinkId;
using kairos::platform::ResourceVector;

namespace {

std::string element_label(const kairos::platform::Platform& platform,
                          std::size_t index) {
  return "element " + std::to_string(index) + " (" +
         platform.elements()[index].name() + ")";
}

}  // namespace

HopOracle::HopOracle(const kairos::platform::Platform& platform)
    : platform_(platform),
      mark_(platform.element_count(), 0),
      depth_(platform.element_count(), 0) {}

int HopOracle::distance(ElementId from, ElementId to) {
  if (from == to) return 0;
  ++generation_;
  frontier_.clear();
  frontier_.push_back(from.value);
  mark_[static_cast<std::size_t>(from.value)] = generation_;
  depth_[static_cast<std::size_t>(from.value)] = 0;
  for (std::size_t head = 0; head < frontier_.size(); ++head) {
    const ElementId at(frontier_[head]);
    const int next_depth = depth_[static_cast<std::size_t>(at.value)] + 1;
    for (const LinkId link : platform_.out_links(at)) {
      const ElementId next = platform_.link(link).dst();
      const auto n = static_cast<std::size_t>(next.value);
      if (mark_[n] == generation_) continue;
      if (next == to) return next_depth;
      mark_[n] = generation_;
      depth_[n] = next_depth;
      frontier_.push_back(next.value);
    }
  }
  return -1;
}

std::string check_route(const kairos::platform::Platform& platform,
                        HopOracle& oracle, ElementId src, ElementId dst,
                        const kairos::noc::Route& route) {
  const int bfs = oracle.distance(src, dst);
  if (bfs < 0) {
    return "route between unconnected elements " +
           std::to_string(src.value) + " and " + std::to_string(dst.value);
  }
  if (route.hops() < bfs) {
    return "route " + std::to_string(src.value) + "->" +
           std::to_string(dst.value) + " has " + std::to_string(route.hops()) +
           " hops, shorter than the BFS distance " + std::to_string(bfs);
  }
  ElementId at = src;
  for (const LinkId link : route.links) {
    if (!link.valid() ||
        static_cast<std::size_t>(link.value) >= platform.link_count()) {
      return "route uses unknown link " + std::to_string(link.value);
    }
    const kairos::platform::Link& wire = platform.link(link);
    if (wire.src() != at) {
      return "route " + std::to_string(src.value) + "->" +
             std::to_string(dst.value) + " breaks at link " +
             std::to_string(link.value) + ", which does not start at element " +
             std::to_string(at.value);
    }
    at = wire.dst();
  }
  if (at != dst) {
    return "route " + std::to_string(src.value) + "->" +
           std::to_string(dst.value) + " ends at element " +
           std::to_string(at.value);
  }
  return {};
}

std::string check_layout(const kairos::platform::Platform& platform,
                         HopOracle& oracle,
                         const kairos::graph::Application& app,
                         const kairos::core::ExecutionLayout& layout) {
  if (layout.placements().size() != app.task_count() ||
      layout.routes().size() != app.channel_count()) {
    return "layout of " + app.name() + " does not cover every task and channel";
  }
  for (const kairos::graph::Channel& channel : app.channels()) {
    const ElementId src = layout.placement(channel.src).element;
    const ElementId dst = layout.placement(channel.dst).element;
    if (!src.valid() || !dst.valid()) {
      return "layout of " + app.name() + " leaves a task unplaced";
    }
    std::string error =
        check_route(platform, oracle, src, dst, layout.route(channel.id).route);
    if (!error.empty()) return app.name() + ": " + error;
  }
  return {};
}

std::string check_capacity(const kairos::platform::Platform& platform) {
  for (std::size_t i = 0; i < platform.element_count(); ++i) {
    const kairos::platform::Element& element = platform.elements()[i];
    if (element.used().any_negative() ||
        !element.used().fits_within(element.capacity())) {
      return element_label(platform, i) + " holds " +
             element.used().to_string() + " of " +
             element.capacity().to_string();
    }
  }
  for (const kairos::platform::Link& link : platform.links()) {
    if (link.vc_used() < 0 || link.vc_used() > link.vc_capacity() ||
        link.bw_used() < 0 || link.bw_used() > link.bw_capacity()) {
      return "link " + std::to_string(link.id().value) + " holds " +
             std::to_string(link.vc_used()) + " channels / " +
             std::to_string(link.bw_used()) + " bandwidth";
    }
  }
  return {};
}

std::string check_bookkeeping(const kairos::core::ResourceManager& manager) {
  const kairos::platform::Platform& platform = manager.platform();
  std::vector<ResourceVector> owned(platform.element_count());
  for (const kairos::core::AppHandle handle : manager.live_handles()) {
    for (const auto& [element, demand] : manager.allocations_of(handle)) {
      owned.at(static_cast<std::size_t>(element.value)) += demand;
    }
  }
  for (std::size_t i = 0; i < owned.size(); ++i) {
    if (!(owned[i] == platform.elements()[i].used())) {
      return element_label(platform, i) + " uses " +
             platform.elements()[i].used().to_string() +
             " but live applications own " + owned[i].to_string();
    }
  }
  return {};
}

std::string check_conservation(const kairos::core::ResourceManager& manager) {
  const kairos::platform::Platform& platform = manager.platform();
  if (manager.live_count() != 0) {
    return std::to_string(manager.live_count()) +
           " applications still live after the last remove";
  }
  for (std::size_t i = 0; i < platform.element_count(); ++i) {
    const kairos::platform::Element& element = platform.elements()[i];
    if (!element.used().is_zero() || element.task_count() != 0) {
      return element_label(platform, i) + " still holds " +
             element.used().to_string() + " and " +
             std::to_string(element.task_count()) +
             " tasks after the last remove";
    }
  }
  for (const kairos::platform::Link& link : platform.links()) {
    if (link.vc_used() != 0 || link.bw_used() != 0) {
      return "link " + std::to_string(link.id().value) + " still holds " +
             std::to_string(link.vc_used()) + " channels after the last remove";
    }
  }
  return {};
}

std::string check_commit_log(std::vector<kairos::service::CommitRecord> log,
                             const std::vector<kairos::core::AppHandle>& live,
                             const kairos::platform::Platform& live_platform,
                             kairos::platform::Platform fresh) {
  if (fresh.element_count() != live_platform.element_count() ||
      fresh.link_count() != live_platform.link_count()) {
    return "replay platform differs in topology from the live one";
  }
  const std::set<kairos::core::AppHandle> live_set(live.begin(), live.end());
  std::sort(log.begin(), log.end(),
            [](const kairos::service::CommitRecord& a,
               const kairos::service::CommitRecord& b) {
              return a.handle < b.handle;
            });
  std::set<kairos::core::AppHandle> replayed;
  for (const kairos::service::CommitRecord& record : log) {
    if (live_set.count(record.handle) == 0) continue;  // removed since
    if (!replayed.insert(record.handle).second) {
      return "commit log holds handle " + std::to_string(record.handle) +
             " twice";
    }
    for (const auto& [element, demand] : record.task_allocations) {
      if (!fresh.allocate(element, demand)) {
        return "replay of handle " + std::to_string(record.handle) +
               " overflows element " + std::to_string(element.value);
      }
      fresh.add_task(element);
    }
    for (const auto& [route, bandwidth] : record.routes) {
      for (const LinkId link : route.links) {
        if (!fresh.allocate_channel(link, bandwidth)) {
          return "replay of handle " + std::to_string(record.handle) +
                 " overflows link " + std::to_string(link.value);
        }
      }
    }
  }
  if (replayed.size() != live_set.size()) {
    return std::to_string(live_set.size() - replayed.size()) +
           " live applications have no commit record";
  }
  for (std::size_t i = 0; i < fresh.element_count(); ++i) {
    const kairos::platform::Element& want = live_platform.elements()[i];
    const kairos::platform::Element& got = fresh.elements()[i];
    if (!(want.used() == got.used()) || want.task_count() != got.task_count()) {
      return element_label(live_platform, i) + " holds " +
             want.used().to_string() + " live but " + got.used().to_string() +
             " after replaying the commit log";
    }
  }
  for (std::size_t i = 0; i < fresh.link_count(); ++i) {
    const kairos::platform::Link& want = live_platform.links()[i];
    const kairos::platform::Link& got = fresh.links()[i];
    if (want.vc_used() != got.vc_used() || want.bw_used() != got.bw_used()) {
      return "link " + std::to_string(i) + " carries " +
             std::to_string(want.vc_used()) + " channels live but " +
             std::to_string(got.vc_used()) + " after replaying the commit log";
    }
  }
  return {};
}

}  // namespace perfbench
