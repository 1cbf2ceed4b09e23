// The benchmark's correctness checks must hold on the program's real outputs
// and fail on deliberately corrupted ones: a platform still holding a unit
// after the last remove, a commit record with a dropped route, and a route
// shorter than the BFS distance between its endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "checks.hpp"
#include "core/resource_manager.hpp"
#include "gen/datasets.hpp"
#include "platform/builders.hpp"
#include "platform/crisp.hpp"
#include "service/admission_service.hpp"

namespace {

using namespace kairos;

core::KairosConfig paper_config() {
  core::KairosConfig config;
  config.weights = {4.0, 100.0};
  return config;
}

std::vector<graph::Application> small_apps() {
  return gen::make_dataset(gen::DatasetKind::kCommunicationSmall, 12, 0x5EED);
}

TEST(Conservation, HoldsAfterEveryAppIsRemoved) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, paper_config());
  std::vector<core::AppHandle> handles;
  for (const graph::Application& app : small_apps()) {
    const core::AdmissionReport report = manager.admit(app);
    if (report.admitted) handles.push_back(report.handle);
  }
  ASSERT_FALSE(handles.empty());
  EXPECT_EQ(perfbench::check_bookkeeping(manager), "");
  EXPECT_NE(perfbench::check_conservation(manager), "");  // still live
  for (const core::AppHandle handle : handles) {
    ASSERT_TRUE(manager.remove(handle).ok());
  }
  EXPECT_EQ(perfbench::check_conservation(manager), "");
}

TEST(Conservation, FailsWhenOneUnitIsLeftAfterTheLastRemove) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, paper_config());
  const core::AdmissionReport report = manager.admit(small_apps().front());
  ASSERT_TRUE(report.admitted);
  ASSERT_TRUE(manager.remove(report.handle).ok());
  ASSERT_EQ(perfbench::check_conservation(manager), "");

  const platform::ElementId leaked = crisp.elements().back().id();
  ASSERT_TRUE(crisp.allocate(leaked, platform::ResourceVector{1, 0, 0, 0}));
  const std::string error = perfbench::check_conservation(manager);
  EXPECT_NE(error, "");
  EXPECT_NE(error.find("after the last remove"), std::string::npos) << error;
  // The leaked unit belongs to no live application.
  EXPECT_NE(perfbench::check_bookkeeping(manager), "");
}

TEST(Capacity, HoldsOnAFullLink) {
  platform::Platform chain = platform::make_chain(2);
  EXPECT_EQ(perfbench::check_capacity(chain), "");
  const platform::LinkId link = chain.links().front().id();
  while (chain.allocate_channel(link, 1)) {
  }
  EXPECT_EQ(perfbench::check_capacity(chain), "");  // full, not over
}

/// Admits a batch through the service and returns the commit log, the live
/// handles and the live platform at the quiesce point.
struct ServiceState {
  platform::Platform crisp = platform::make_crisp_platform();
  std::vector<service::CommitRecord> log;
  std::vector<core::AppHandle> live;
};

void run_service(ServiceState& state) {
  core::ResourceManager manager(state.crisp, paper_config());
  service::ServiceConfig config;
  config.threads = 2;
  service::AdmissionService service(manager, config);
  std::vector<std::future<core::AdmissionReport>> futures;
  for (const graph::Application& app : small_apps()) {
    futures.push_back(service.submit(app));
  }
  for (auto& future : futures) future.get();
  service.drain();
  state.log = service.commit_log();
  state.live = manager.live_handles();
  service.stop();
}

TEST(CommitLog, ReplayReproducesTheLiveState) {
  ServiceState state;
  run_service(state);
  ASSERT_FALSE(state.live.empty());
  EXPECT_EQ(perfbench::check_commit_log(state.log, state.live, state.crisp,
                                        platform::make_crisp_platform()),
            "");
}

TEST(CommitLog, FailsOnARecordWithADroppedRoute) {
  ServiceState state;
  run_service(state);
  const auto with_route =
      std::find_if(state.log.begin(), state.log.end(),
                   [](const service::CommitRecord& record) {
                     return std::any_of(
                         record.routes.begin(), record.routes.end(),
                         [](const auto& route) {
                           return !route.first.links.empty();
                         });
                   });
  ASSERT_NE(with_route, state.log.end());
  const auto routed =
      std::find_if(with_route->routes.begin(), with_route->routes.end(),
                   [](const auto& route) { return !route.first.links.empty(); });
  with_route->routes.erase(routed);
  const std::string error = perfbench::check_commit_log(
      state.log, state.live, state.crisp, platform::make_crisp_platform());
  EXPECT_NE(error, "");
  EXPECT_NE(error.find("link"), std::string::npos) << error;
}

TEST(Routes, AcceptEveryLayoutTheManagerAdmits) {
  platform::Platform crisp = platform::make_crisp_platform();
  core::ResourceManager manager(crisp, paper_config());
  perfbench::HopOracle oracle(crisp);
  int checked = 0;
  for (const graph::Application& app : small_apps()) {
    const core::AdmissionReport report = manager.admit(app);
    if (!report.admitted) continue;
    EXPECT_EQ(perfbench::check_layout(crisp, oracle, app, report.layout), "");
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(Routes, OracleMatchesMeshDistances) {
  const platform::Platform mesh = platform::make_mesh(5, 4);
  perfbench::HopOracle oracle(mesh);
  // Element ids are row-major: (x, y) -> y * width + x.
  EXPECT_EQ(oracle.distance(platform::ElementId(0), platform::ElementId(0)), 0);
  EXPECT_EQ(oracle.distance(platform::ElementId(0), platform::ElementId(1)), 1);
  EXPECT_EQ(oracle.distance(platform::ElementId(0), platform::ElementId(19)),
            7);
  EXPECT_EQ(oracle.distance(platform::ElementId(7), platform::ElementId(12)),
            1);
}

TEST(Routes, FailWhenShorterThanTheBfsDistance) {
  const platform::Platform mesh = platform::make_mesh(4, 1);
  perfbench::HopOracle oracle(mesh);
  const platform::ElementId first(0);
  const platform::ElementId last(3);
  // The full chain 0 -> 1 -> 2 -> 3 passes.
  noc::Route route;
  platform::ElementId at = first;
  while (at != last) {
    const platform::ElementId next(at.value + 1);
    route.links.push_back(*mesh.find_link(at, next));
    at = next;
  }
  EXPECT_EQ(perfbench::check_route(mesh, oracle, first, last, route), "");
  // Corrupted: the middle hop is dropped, so the route claims 2 hops for a
  // 3-hop distance.
  route.links.erase(route.links.begin() + 1);
  const std::string error =
      perfbench::check_route(mesh, oracle, first, last, route);
  EXPECT_NE(error.find("shorter than the BFS distance"), std::string::npos)
      << error;
}

TEST(Routes, FailWhenDiscontiguousOrEndingElsewhere) {
  const platform::Platform mesh = platform::make_mesh(3, 3);
  perfbench::HopOracle oracle(mesh);
  // Row-major 3x3: 0 1 2 / 3 4 5 / 6 7 8.
  const platform::ElementId a(0), b(1), c(2), d(5), centre(4);
  noc::Route jump;  // 0 -> 1, then a link starting at 2; two hops to 4
  jump.links = {*mesh.find_link(a, b), *mesh.find_link(c, d)};
  EXPECT_NE(
      perfbench::check_route(mesh, oracle, a, centre, jump).find("breaks"),
      std::string::npos);
  noc::Route detour;  // 0 -> 1 -> 2 -> 5 -> 2 claimed as a route to 5
  detour.links = {*mesh.find_link(a, b), *mesh.find_link(b, c),
                  *mesh.find_link(c, d), *mesh.find_link(d, c)};
  EXPECT_NE(perfbench::check_route(mesh, oracle, a, d, detour).find("ends at"),
            std::string::npos);
}

}  // namespace
