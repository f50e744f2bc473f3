// Snapshot/resume/divergence-replay harness shared by tools/replay, the
// chaos campaign (src/chaos/), bench_tenant and the tests.
//
// A Scenario owns everything a deterministic R2C2 simulation run needs —
// topology, router, config, workload — built from a (name, threads, seed)
// triple, so two processes (or two builds) handed the same triple construct
// bit-identical runs, or from explicit inputs (topology, sim config,
// arrivals, digest cadence), as the chaos campaign's generated runs are.
// Four named scenarios are provided:
//
//   "fault"  chaos-mode fail/restore waves plus control/data corruption on
//            a 4x4 torus, the self-healing control plane fully armed;
//   "ga"     the genetic-algorithm route selector assigns per-flow
//            protocols (RPS/VLB mix) up front — with the configured
//            fitness-evaluation thread count — and the sim runs the mixed
//            workload. Exercises the claim that GA parallelism is
//            bit-identical across thread counts end to end.
//   "adaptive" a folded-Clos rack under an asymmetric gray fault (one
//            leaf->spine uplink degraded) with congestion-aware spraying
//            on: ECN-style marks steer the spray per packet. Exercises the
//            claim that the adaptive data plane keeps digest/snapshot
//            bit-identity at any worker count.
//   "tenant" the closed-loop service layer (src/service/): three tenants —
//            RPC, partition-aggregate incast with a straggler timeout, and
//            zipfian storage with a mid-run workload shift — drive the same
//            folded Clos alongside a background open-loop mesh workload.
//            Exercises dynamically issued flows, service timers and the
//            service snapshot sections end to end.
//
// config.routing overrides the scenario's routing mode: "static" forces
// congestion-aware spraying off, "adaptive" forces it on (with the
// scenario-independent default signal parameters), "" keeps the
// scenario's own default.
//
// run() drives the sim in fixed digest intervals, recording the rolling
// state digest at every boundary (and into the flight recorder as
// kStateDigest instants when one is attached), optionally writing a
// snapshot archive every snapshot_every nanoseconds. Because the engine is
// advanced with run_until() from outside, the digest cadence perturbs
// nothing: event sequence numbers, RNG draws and event order are identical
// to an uninstrumented run. divergence() is the one comparison of two
// runs behind every digest-identity gate.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "service/service.h"
#include "sim/fault.h"
#include "sim/metrics.h"
#include "sim/r2c2_sim.h"
#include "snapshot/digest.h"
#include "topology/topology.h"
#include "workload/generator.h"

namespace r2c2::snapshot {

struct ReplayConfig {
  // "fault" | "ga" | "adaptive" | "tenant"; "" in a Scenario of explicit inputs
  std::string scenario = "fault";
  std::string routing;             // "" = scenario default | "static" | "adaptive"
  int threads = 1;                 // GA fitness-evaluation threads ("ga" only)
  // Sharded event engine: shard count changes the trajectory (it is part
  // of the config fingerprint); worker count is pure parallelism and must
  // leave every digest, metric and snapshot byte-identical.
  int engine_shards = 1;
  int engine_workers = 1;
  std::uint64_t seed = 13;
  TimeNs digest_every = 20 * kNsPerUs;  // digest cadence (the "tick")
  TimeNs snapshot_every = 0;            // 0 = no periodic snapshot files
  std::string snapshot_prefix;          // files named <prefix><time_ns>.snap
  obs::FlightRecorder* trace = nullptr;  // also receives kStateDigest instants
};

struct ReplayResult {
  DigestLog digests;       // one point per digest_every boundary
  std::uint64_t final_digest = 0;
  std::uint64_t metrics_digest = 0;  // all RunMetrics fields, mixed
  sim::RunMetrics metrics;
  std::vector<std::string> snapshots_written;  // paths, in time order
};

// Order-sensitive digest over every field of a RunMetrics (including the
// per-flow and per-recovery vectors): equal digests mean the two runs
// produced bit-identical results.
std::uint64_t metrics_digest(const sim::RunMetrics& m);

// Empty when `got` reproduces `want`; otherwise names the first difference,
// checked in this order: want's digest points after `after` against got's
// whole trail (the first differing point, else the two lengths), the final
// state digest, the metrics digest. A run resumed from a snapshot taken at
// `after` records only the points past it.
std::string divergence(const ReplayResult& want, const ReplayResult& got, TimeNs after = -1);

class Scenario {
 public:
  explicit Scenario(ReplayConfig config);
  // A run of explicit inputs: `sim_config` is used as given (engine shards,
  // workers and trace included), digested every `digest_every`.
  Scenario(Topology topo, sim::R2c2SimConfig sim_config, std::vector<FlowArrival> arrivals,
           TimeNs digest_every);

  // The configured-but-unrun simulator (load a snapshot into it to resume).
  sim::R2c2Sim& simulator() { return *sim_; }
  const ReplayConfig& config() const { return config_; }
  // Attached service layer ("tenant" scenario only; nullptr otherwise).
  service::ServiceLayer* service() { return service_.get(); }

  // Runs (or resumes, if a snapshot was loaded) until the event queue
  // drains or the digest grid reaches `until`, recording digests and
  // writing periodic snapshots.
  ReplayResult run(TimeNs until = std::numeric_limits<TimeNs>::max());

 private:
  // The steps both constructors share once the inputs are built: the sim,
  // its flows and, for the "tenant" scenario, the started service layer.
  void start();

  ReplayConfig config_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<Router> router_;
  sim::R2c2SimConfig sim_config_;
  std::vector<FlowArrival> arrivals_;
  std::unique_ptr<sim::R2c2Sim> sim_;
  std::unique_ptr<service::ServiceLayer> service_;  // "tenant" scenario only
};

// Archive round trip through a file: save_snapshot writes `sim` to `path`,
// load_snapshot restores it into a freshly built scenario's simulator.
// Both throw SnapshotError on failure.
void save_snapshot(const sim::R2c2Sim& simulator, const std::string& path);
void load_snapshot(sim::R2c2Sim& simulator, const std::string& path);

}  // namespace r2c2::snapshot
