// Proves the benchmark's output checks are armed: each check passes on a
// correct result and fails on a deliberately broken one (a flow short of
// bytes, a digest mismatch across worker counts, a GA assignment
// mismatch, ...). Exits non-zero naming every expectation that did not hold.
//
//   cmake --build .bench_build/rackbench --target rackbench_checks_test
//   .bench_build/rackbench/rackbench_checks_test
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.h"
#include "packet/packet.h"

namespace {

using namespace r2c2;
using rackbench::Checks;

int g_failed = 0;

// Runs `body` on a fresh Checks and expects `check` to fail (or, with
// expect_fail == false, every check to pass).
void expect(const char* what, bool expect_fail, const std::string& check,
            const std::function<void(Checks&)>& body) {
  Checks c;
  body(c);
  bool failed = false;
  for (const rackbench::CheckFailure& f : c.failures()) failed |= f.check == check;
  const bool ok = expect_fail ? failed : c.ok();
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) {
    ++g_failed;
    for (const rackbench::CheckFailure& f : c.failures()) {
      std::printf("     %s: %s\n", f.check.c_str(), f.detail.c_str());
    }
  }
}

constexpr std::uint32_t kMtu = static_cast<std::uint32_t>(kMaxPayloadBytes);

// A clean open-loop result for `inputs`: every flow finished, wire bytes as
// minimal routing implies.
sim::RunMetrics clean_run(const Topology& topo, const std::vector<FlowArrival>& inputs) {
  sim::RunMetrics m;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    sim::FlowRecord f;
    f.id = i + 1;
    f.src = inputs[i].src;
    f.dst = inputs[i].dst;
    f.bytes = inputs[i].bytes;
    f.arrival = inputs[i].start;
    f.completed = inputs[i].start + 1000;
    m.flows.push_back(f);
  }
  m.data_bytes_on_wire = rackbench::minimal_data_wire_bytes(topo, m.flows, kMtu);
  return m;
}

service::ServiceConfig one_tenant() {
  service::ServiceConfig cfg;
  service::TenantConfig t;
  t.name = "rpc";
  t.max_requests = 10;
  cfg.tenants.push_back(t);
  return cfg;
}

service::SloReport clean_report() {
  service::SloReport rep;
  service::TenantReport t;
  t.name = "rpc";
  t.issued = 10;
  t.completed = 9;
  t.timed_out = 1;
  rep.tenants.push_back(t);
  return rep;
}

}  // namespace

int main() {
  const Topology topo = make_torus({4, 4, 4}, 10 * kGbps, 100);
  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = 50;
  const std::vector<FlowArrival> inputs = generate_poisson_uniform(wl);
  const sim::RunMetrics good = clean_run(topo, inputs);

  // --- open-loop flows ---
  expect("clean flow run passes", false, "", [&](Checks& c) {
    rackbench::check_flows(c, inputs, good, topo, kMtu, true, 0);
  });
  expect("flow short of bytes on the wire fails", true, "flows.delivered_bytes", [&](Checks& c) {
    sim::RunMetrics m = good;
    m.data_bytes_on_wire -= 1;
    rackbench::check_flows(c, inputs, m, topo, kMtu, true, 0);
  });
  expect("flow short of bytes fails the lower bound too", true, "flows.delivered_bytes",
         [&](Checks& c) {
           sim::RunMetrics m = good;
           m.data_bytes_on_wire -= 1;
           rackbench::check_flows(c, inputs, m, topo, kMtu, false, 0);
         });
  expect("record smaller than its input fails", true, "flows.inputs", [&](Checks& c) {
    sim::RunMetrics m = good;
    m.flows[7].bytes -= 1;
    rackbench::check_flows(c, inputs, m, topo, kMtu, true, 0);
  });
  expect("unfinished flow fails", true, "flows.resolved", [&](Checks& c) {
    sim::RunMetrics m = good;
    m.flows[3].completed = -1;
    rackbench::check_flows(c, inputs, m, topo, kMtu, true, 0);
  });
  expect("aborted flow fails", true, "flows.resolved", [&](Checks& c) {
    sim::RunMetrics m = good;
    m.flows[3].aborted = true;
    rackbench::check_flows(c, inputs, m, topo, kMtu, true, 0);
  });
  expect("missing flow record fails", true, "flows.count", [&](Checks& c) {
    sim::RunMetrics m = good;
    m.flows.pop_back();
    rackbench::check_flows(c, inputs, m, topo, kMtu, true, 0);
  });
  expect("dropped packet fails", true, "network.drops", [&](Checks& c) {
    sim::RunMetrics m = good;
    m.drops = 1;
    rackbench::check_flows(c, inputs, m, topo, kMtu, true, 0);
  });
  expect("clamped schedule fails", true, "engine.clamped", [&](Checks& c) {
    rackbench::check_flows(c, inputs, good, topo, kMtu, true, 1);
  });

  // --- closed-loop service ---
  const service::ServiceConfig svc = one_tenant();
  expect("clean service run passes", false, "", [&](Checks& c) {
    rackbench::check_service(c, svc, clean_report(), 0, good, topo, kMtu, 0);
  });
  expect("unresolved request fails", true, "service.rpc.resolved", [&](Checks& c) {
    service::SloReport rep = clean_report();
    rep.tenants[0].completed -= 1;
    rackbench::check_service(c, svc, rep, 0, good, topo, kMtu, 0);
  });
  expect("aborted request fails", true, "service.rpc.aborted", [&](Checks& c) {
    service::SloReport rep = clean_report();
    rep.tenants[0].completed -= 1;
    rep.tenants[0].aborted = 1;
    rackbench::check_service(c, svc, rep, 0, good, topo, kMtu, 0);
  });
  expect("short request budget fails", true, "service.rpc.issued", [&](Checks& c) {
    service::SloReport rep = clean_report();
    rep.tenants[0].issued -= 1;
    rep.tenants[0].completed -= 1;
    rackbench::check_service(c, svc, rep, 0, good, topo, kMtu, 0);
  });
  expect("request left in flight fails", true, "service.in_flight", [&](Checks& c) {
    rackbench::check_service(c, svc, clean_report(), 1, good, topo, kMtu, 0);
  });
  expect("service flow short of bytes fails", true, "flows.delivered_bytes", [&](Checks& c) {
    sim::RunMetrics m = good;
    m.data_bytes_on_wire -= 1;
    rackbench::check_service(c, svc, clean_report(), 0, m, topo, kMtu, 0);
  });

  // --- digests ---
  expect("equal digests pass", false, "", [&](Checks& c) {
    const std::uint64_t v[] = {42, 42, 42};
    rackbench::check_identical(c, "digest.repeat", v);
  });
  expect("digest mismatch across worker counts fails", true, "digest.workers_4_vs_2",
         [&](Checks& c) {
           const std::uint64_t v[] = {0x1234, 0x1235};
           rackbench::check_identical(c, "digest.workers_4_vs_2", v);
         });
  expect("digest mismatch across repetitions fails", true, "digest.repeat", [&](Checks& c) {
    const std::uint64_t v[] = {7, 7, 8};
    rackbench::check_identical(c, "digest.repeat", v);
  });

  // --- GA ---
  SelectionResult ga;
  ga.assignment = {RouteAlg::kRps, RouteAlg::kVlb, RouteAlg::kRps};
  ga.utility = 3.5e10;
  ga.evaluations = 120;
  const RouteAlg choices[] = {RouteAlg::kRps, RouteAlg::kVlb};
  expect("same GA result passes", false, "", [&](Checks& c) {
    rackbench::check_same_selection(c, "ga.threads_4_vs_2", ga, ga);
    rackbench::check_selection(c, ga, 3, choices);
  });
  expect("GA assignment mismatch fails", true, "ga.threads_4_vs_2", [&](Checks& c) {
    SelectionResult other = ga;
    other.assignment[1] = RouteAlg::kRps;
    rackbench::check_same_selection(c, "ga.threads_4_vs_2", ga, other);
  });
  expect("GA utility mismatch fails", true, "ga.threads_4_vs_2", [&](Checks& c) {
    SelectionResult other = ga;
    other.utility += 1.0;
    rackbench::check_same_selection(c, "ga.threads_4_vs_2", ga, other);
  });
  expect("GA evaluation-count mismatch fails", true, "ga.threads_4_vs_2", [&](Checks& c) {
    SelectionResult other = ga;
    other.evaluations += 1;
    rackbench::check_same_selection(c, "ga.threads_4_vs_2", ga, other);
  });
  expect("GA choice outside the set fails", true, "ga.assignment", [&](Checks& c) {
    SelectionResult other = ga;
    other.assignment[2] = RouteAlg::kDor;
    rackbench::check_selection(c, other, 3, choices);
  });

  // --- percentiles ---
  const auto report = [](const char* what, bool ok) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++g_failed;
  };
  std::vector<double> samples(999);
  for (std::size_t i = 0; i < samples.size(); ++i) samples[i] = static_cast<double>(i);
  report("p99 of 999 samples is suppressed", !rackbench::percentile(samples, 99.0));
  report("p50 of 999 samples is the median", rackbench::percentile(samples, 50.0) == 499.0);
  samples.push_back(999.0);
  report("p99 of 1000 samples is reported", rackbench::percentile(samples, 99.0).has_value());
  report("p99.9 of 1000 samples is suppressed", !rackbench::percentile(samples, 99.9));
  report("p50 of 19 samples is suppressed", !rackbench::percentile({1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                                    10, 11, 12, 13, 14, 15, 16,
                                                                    17, 18, 19},
                                                                   50.0));

  std::printf("%s: %d expectation(s) failed\n", g_failed == 0 ? "PASS" : "FAIL", g_failed);
  return g_failed == 0 ? 0 : 1;
}
