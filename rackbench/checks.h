// Output checks for the rack benchmark. Each check compares what a run
// produced against what its generated inputs imply, and records a named
// failure instead of throwing, so one run reports every broken check at
// once. checks_test.cpp feeds each check a deliberately broken result.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "control/route_selection.h"
#include "service/service.h"
#include "sim/metrics.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace rackbench {

struct CheckFailure {
  std::string check;
  std::string detail;
};

class Checks {
 public:
  // Records a failure of `check` when `ok` is false; returns `ok`.
  bool require(bool ok, const std::string& check, const std::string& detail);

  bool ok() const { return failures_.empty(); }
  std::size_t run() const { return run_; }
  const std::vector<CheckFailure>& failures() const { return failures_; }

 private:
  std::size_t run_ = 0;
  std::vector<CheckFailure> failures_;
};

// A percentile is reported only with at least ten samples beyond it;
// otherwise it is just one of the few largest values.
bool supported(double q, std::size_t samples);

// r2c2::percentile, or nullopt when unsupported.
std::optional<double> percentile(std::vector<double> v, double q);

// Wire bytes the data packets of one flow occupy per hop: the payload plus
// one data header per MTU-sized packet.
std::uint64_t flow_wire_bytes(std::uint64_t bytes, std::uint32_t mtu_payload);

// Bytes the data packets of `flows` put on the wire when each packet takes
// a minimal path, as under kRps and kDor, the algorithms the simulated
// workloads route with: sum over flows of hops * flow_wire_bytes.
std::uint64_t minimal_data_wire_bytes(const r2c2::Topology& topo,
                                      std::span<const r2c2::sim::FlowRecord> flows,
                                      std::uint32_t mtu_payload);

// Open-loop flow workload: one record per input arrival, in input order,
// with the input's endpoints, size and start time; every flow finished and
// none aborted; no drops and no clamped schedules. With `exact_wire` the
// data bytes on the wire must equal minimal_data_wire_bytes exactly (an
// unreliable run on minimal routes sends each byte once per hop); without
// it they must be at least that (ACKs and retransmissions add to it).
void check_flows(Checks& c, std::span<const r2c2::FlowArrival> inputs,
                 const r2c2::sim::RunMetrics& m, const r2c2::Topology& topo,
                 std::uint32_t mtu_payload, bool exact_wire, std::uint64_t clamped);

// Closed-loop service workload: every tenant issued its request budget and
// resolved every request (completed, timed out or aborted, none aborted on
// a loss-free fabric), nothing is left in flight, every service flow
// finished, and the wire carried at least every flow's bytes.
void check_service(Checks& c, const r2c2::service::ServiceConfig& config,
                   const r2c2::service::SloReport& report, std::size_t in_flight,
                   const r2c2::sim::RunMetrics& m, const r2c2::Topology& topo,
                   std::uint32_t mtu_payload, std::uint64_t clamped);

// Every value equal to the first (repeated runs of one seed, or one run at
// two worker counts).
void check_identical(Checks& c, const std::string& check, std::span<const std::uint64_t> values);

// The GA returned the same assignment, utility and evaluation count.
void check_same_selection(Checks& c, const std::string& check, const r2c2::SelectionResult& a,
                          const r2c2::SelectionResult& b);

// A GA result is usable: one choice per flow, each from `choices`, and a
// positive utility.
void check_selection(Checks& c, const r2c2::SelectionResult& r, std::size_t flows,
                     std::span<const r2c2::RouteAlg> choices);

}  // namespace rackbench
