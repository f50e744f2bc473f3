// Gray-chaos campaign harness: seeded scenario sweeps, machine-checked
// invariants, and ddmin-style fault-script shrinking to a minimal repro.
//
// A campaign is N independently seeded chaos scenarios on the 4x4 torus,
// each a full R2C2 simulation with hard link/node failure waves *and* gray
// degradation waves (loss, corruption, jitter, flapping — see sim/fault.h)
// while the adaptive-detection and adaptive-RTO machinery is fully armed.
// Every scenario is checked against machine-readable invariants:
//
//   flow-resolution   every flow ends the run resolved: finished or
//                     explicitly aborted (no silently stuck flows), and
//                     never both;
//   byte-conservation delivered payload bytes never exceed data bytes put
//                     on the wire (retransmission can only add overhead);
//   recovery-bound    every *detected* hard failure rebuilds the routing
//                     context within `recovery_bound` of detection (unless
//                     the run ended first);
//   resume-digest     snapshotting at a mid-run digest boundary and
//                     resuming in a fresh simulator reproduces the exact
//                     digest trail, final state digest and metrics digest;
//   worker-digest     re-running the identical scenario with a different
//                     engine worker count leaves every digest bit-identical
//                     (worker count is pure parallelism, never trajectory).
//
// When a scenario violates an invariant the harness shrinks its fault
// script with ddmin (delta debugging): repeatedly re-runs the scenario
// with subsets of the scripted fault events, keeping the smallest subset
// that still triggers the *same* invariant, and writes the survivor as a
// machine-readable repro file. `tools/replay repro <file>` re-runs the
// archived script and exits nonzero when the violation re-triggers, so a
// CI campaign failure ships with a one-command reproduction. (Standard
// ddmin caveat: the minimal script is guaranteed to violate the same
// invariant, which is occasionally a simpler failure of the same kind
// rather than the literal original root cause.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/fault.h"
#include "sim/r2c2_sim.h"
#include "workload/generator.h"

namespace r2c2::chaos {

struct CampaignConfig {
  int scenarios = 20;
  std::uint64_t seed = 7;  // campaign master seed; scenario i derives from it
  int engine_shards = 4;   // trajectory-relevant (config fingerprint)
  int base_workers = 1;    // all invariants evaluated at this worker count
  int alt_workers = 4;     // worker-digest cross-check; 0 disables it
  int flows = 48;          // mesh workload size per scenario
  TimeNs digest_every = 20 * kNsPerUs;
  bool check_resume = true;  // resume-digest invariant (one extra run)
  // recovery-bound: context rebuild must land within this of detection.
  TimeNs recovery_bound = 400 * kNsPerUs;
  // Where failing scenarios write their shrunken repro files; empty = do
  // not shrink or write repros (fast pass/fail only).
  std::string artifact_dir;
};

struct Violation {
  std::string invariant;  // one of the names documented above
  std::string detail;     // human-readable specifics
};

// Everything needed to rebuild one scenario bit-identically: the sim
// config (including the fault script, which shrinking overrides) and the
// workload. The topology is always the campaign's 4x4 torus.
struct ScenarioSpec {
  sim::R2c2SimConfig sim_config;
  std::vector<FlowArrival> arrivals;
};

// Deterministic scenario builder: (config, index) -> spec. Scenario seeds
// are splitmix-derived from the campaign seed, so campaigns with the same
// (seed, index) reproduce byte-identical runs across processes.
ScenarioSpec make_gray_scenario(const CampaignConfig& config, int index);

struct ScenarioOutcome {
  int index = 0;
  std::uint64_t scenario_seed = 0;
  bool passed = true;
  std::vector<Violation> violations;
  std::uint64_t final_digest = 0;
  std::uint64_t metrics_digest = 0;
  // Headline numbers for the campaign report.
  std::size_t fault_events = 0;
  std::uint64_t gray_drops = 0;
  std::uint64_t flow_aborts = 0;
  std::uint64_t links_demoted = 0;
  std::string repro_path;  // non-empty when a shrunken repro was written
};

struct CampaignResult {
  std::vector<ScenarioOutcome> scenarios;
  int failed = 0;

  bool passed() const { return failed == 0; }
};

CampaignResult run_campaign(const CampaignConfig& config);

// ddmin: the smallest subset of spec.sim_config.faults.events (original
// order preserved) whose run still violates `invariant` under `config`'s
// evaluation parameters. Returns the original script unchanged if the full
// script does not violate it (nothing to shrink).
sim::FaultScript shrink_fault_script(const ScenarioSpec& spec, const CampaignConfig& config,
                                     const std::string& invariant);

// --- Minimal-repro archives -----------------------------------------------
// A small line-oriented text format carrying the campaign parameters, the
// violated invariant and the (shrunken) fault script; see campaign.cpp for
// the exact grammar. Stable enough to commit next to a bug report.
struct Repro {
  CampaignConfig config;
  int index = 0;
  std::string invariant;
  std::string detail;
  sim::FaultScript script;
};

void write_repro(const std::string& path, const Repro& repro);
Repro load_repro(const std::string& path);  // throws std::runtime_error

// Re-runs the archived scenario with the archived script and reports
// whether the recorded invariant violation re-triggers.
bool repro_triggers(const Repro& repro);

}  // namespace r2c2::chaos
