#include "checks.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"
#include "packet/packet.h"

namespace rackbench {

using r2c2::sim::FlowRecord;

bool Checks::require(bool ok, const std::string& check, const std::string& detail) {
  ++run_;
  if (!ok) failures_.push_back({check, detail});
  return ok;
}

bool supported(double q, std::size_t samples) {
  return static_cast<double>(samples) * (100.0 - q) / 100.0 >= 10.0;
}

std::optional<double> percentile(std::vector<double> v, double q) {
  if (!supported(q, v.size())) return std::nullopt;
  return r2c2::percentile(std::move(v), q);
}

std::uint64_t flow_wire_bytes(std::uint64_t bytes, std::uint32_t mtu_payload) {
  const std::uint64_t packets = (bytes + mtu_payload - 1) / mtu_payload;
  return bytes + packets * r2c2::DataHeader::kWireSize;
}

std::uint64_t minimal_data_wire_bytes(const r2c2::Topology& topo,
                                      std::span<const FlowRecord> flows,
                                      std::uint32_t mtu_payload) {
  std::uint64_t total = 0;
  for (const FlowRecord& f : flows) {
    total += static_cast<std::uint64_t>(topo.distance(f.src, f.dst)) *
             flow_wire_bytes(f.bytes, mtu_payload);
  }
  return total;
}

namespace {

void check_network(Checks& c, const r2c2::sim::RunMetrics& m, std::uint64_t clamped) {
  c.require(m.drops == 0, "network.drops", std::to_string(m.drops) + " packets dropped");
  c.require(clamped == 0, "engine.clamped",
            std::to_string(clamped) + " events scheduled in the past");
}

std::string flow_name(std::size_t i) { return "flow " + std::to_string(i + 1); }

}  // namespace

void check_flows(Checks& c, std::span<const r2c2::FlowArrival> inputs,
                 const r2c2::sim::RunMetrics& m, const r2c2::Topology& topo,
                 std::uint32_t mtu_payload, bool exact_wire, std::uint64_t clamped) {
  c.require(m.flows.size() == inputs.size(), "flows.count",
            std::to_string(m.flows.size()) + " records for " + std::to_string(inputs.size()) +
                " input flows");
  const std::size_t n = std::min(m.flows.size(), inputs.size());
  std::size_t mismatched = 0;
  std::size_t unresolved = 0;
  std::string first_mismatch;
  std::string first_unresolved;
  for (std::size_t i = 0; i < n; ++i) {
    const FlowRecord& f = m.flows[i];
    const r2c2::FlowArrival& a = inputs[i];
    if (f.src != a.src || f.dst != a.dst || f.bytes != a.bytes || f.arrival != a.start) {
      if (mismatched++ == 0) {
        first_mismatch = flow_name(i) + " has " + std::to_string(f.bytes) + " bytes " +
                         std::to_string(f.src) + "->" + std::to_string(f.dst) + ", input " +
                         std::to_string(a.bytes) + " bytes " + std::to_string(a.src) + "->" +
                         std::to_string(a.dst);
      }
    }
    if (!f.finished() || f.aborted || f.completed < f.arrival) {
      if (unresolved++ == 0) first_unresolved = flow_name(i) + " did not finish";
    }
  }
  c.require(mismatched == 0, "flows.inputs",
            std::to_string(mismatched) + " records differ from their input; " + first_mismatch);
  c.require(unresolved == 0, "flows.resolved",
            std::to_string(unresolved) + " flows unfinished or aborted; " + first_unresolved);

  // Sizes come from the inputs, so a run that lost or duplicated payload
  // shows up here even when every record claims to be finished.
  std::vector<FlowRecord> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i].src = inputs[i].src;
    expected[i].dst = inputs[i].dst;
    expected[i].bytes = inputs[i].bytes;
  }
  const std::uint64_t want = minimal_data_wire_bytes(topo, expected, mtu_payload);
  const bool bytes_ok = exact_wire ? m.data_bytes_on_wire == want : m.data_bytes_on_wire >= want;
  c.require(bytes_ok, "flows.delivered_bytes",
            "data bytes on wire " + std::to_string(m.data_bytes_on_wire) +
                (exact_wire ? ", flow sizes imply " : ", flow sizes imply at least ") +
                std::to_string(want));
  check_network(c, m, clamped);
}

void check_service(Checks& c, const r2c2::service::ServiceConfig& config,
                   const r2c2::service::SloReport& report, std::size_t in_flight,
                   const r2c2::sim::RunMetrics& m, const r2c2::Topology& topo,
                   std::uint32_t mtu_payload, std::uint64_t clamped) {
  c.require(report.tenants.size() == config.tenants.size(), "service.tenants",
            std::to_string(report.tenants.size()) + " tenant reports for " +
                std::to_string(config.tenants.size()) + " tenants");
  for (std::size_t i = 0; i < std::min(report.tenants.size(), config.tenants.size()); ++i) {
    const r2c2::service::TenantReport& t = report.tenants[i];
    const std::string name = "service." + t.name;
    c.require(t.issued == config.tenants[i].max_requests, name + ".issued",
              std::to_string(t.issued) + " requests issued of " +
                  std::to_string(config.tenants[i].max_requests));
    c.require(t.completed + t.timed_out + t.aborted == t.issued, name + ".resolved",
              std::to_string(t.completed) + " completed + " + std::to_string(t.timed_out) +
                  " timed out + " + std::to_string(t.aborted) + " aborted != " +
                  std::to_string(t.issued) + " issued");
    c.require(t.aborted == 0, name + ".aborted",
              std::to_string(t.aborted) + " requests aborted on a loss-free fabric");
  }
  c.require(in_flight == 0, "service.in_flight",
            std::to_string(in_flight) + " requests still in flight after the run drained");

  std::size_t unresolved = 0;
  for (const FlowRecord& f : m.flows) {
    if (!f.finished() || f.aborted) ++unresolved;
  }
  c.require(!m.flows.empty() && unresolved == 0, "flows.resolved",
            std::to_string(unresolved) + " of " + std::to_string(m.flows.size()) +
                " service flows unfinished or aborted");
  const std::uint64_t want = minimal_data_wire_bytes(topo, m.flows, mtu_payload);
  c.require(m.data_bytes_on_wire >= want, "flows.delivered_bytes",
            "data bytes on wire " + std::to_string(m.data_bytes_on_wire) +
                ", flow sizes imply at least " + std::to_string(want));
  check_network(c, m, clamped);
}

void check_identical(Checks& c, const std::string& check, std::span<const std::uint64_t> values) {
  std::size_t differing = 0;
  for (const std::uint64_t v : values) {
    if (v != values.front()) ++differing;
  }
  c.require(!values.empty() && differing == 0, check,
            std::to_string(differing) + " of " + std::to_string(values.size()) +
                " values differ from the first");
}

void check_same_selection(Checks& c, const std::string& check, const r2c2::SelectionResult& a,
                          const r2c2::SelectionResult& b) {
  std::size_t genes = 0;
  for (std::size_t i = 0; i < std::min(a.assignment.size(), b.assignment.size()); ++i) {
    if (a.assignment[i] != b.assignment[i]) ++genes;
  }
  const bool same = a.assignment.size() == b.assignment.size() && genes == 0 &&
                    a.utility == b.utility && a.evaluations == b.evaluations;
  c.require(same, check,
            std::to_string(genes) + " assignments differ; utility " + std::to_string(a.utility) +
                " vs " + std::to_string(b.utility) + "; evaluations " +
                std::to_string(a.evaluations) + " vs " + std::to_string(b.evaluations));
}

void check_selection(Checks& c, const r2c2::SelectionResult& r, std::size_t flows,
                     std::span<const r2c2::RouteAlg> choices) {
  std::size_t foreign = 0;
  for (const r2c2::RouteAlg alg : r.assignment) {
    if (std::find(choices.begin(), choices.end(), alg) == choices.end()) ++foreign;
  }
  c.require(r.assignment.size() == flows && foreign == 0, "ga.assignment",
            std::to_string(r.assignment.size()) + " choices for " + std::to_string(flows) +
                " flows, " + std::to_string(foreign) + " outside the choice set");
  c.require(std::isfinite(r.utility) && r.utility > 0.0 && r.evaluations > 0, "ga.utility",
            "utility " + std::to_string(r.utility) + " after " +
                std::to_string(r.evaluations) + " evaluations");
}

}  // namespace rackbench
