#include "chaos/campaign.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/rng.h"
#include "snapshot/archive.h"
#include "snapshot/replay.h"
#include "topology/topology.h"

namespace r2c2::chaos {

namespace {

// Every campaign scenario runs on the same substrate as the replay
// scenarios: a 4x4 torus, 10 Gbps links, 100 ns propagation.
Topology campaign_torus() { return make_torus({4, 4}, 10 * kGbps, 100); }

// Hard sim-time ceiling per run. Generated scenarios go idle well under
// 10 ms, but ddmin subsets can drop a restore event and leave the rack
// permanently partitioned — the rebuild retry loop then keeps the engine
// live forever. A capped run just ends here and the invariant checkers
// read whatever state it reached (unresolved flows, unrecovered
// episodes), which is exactly the verdict a liveness violation deserves.
constexpr TimeNs kScenarioRunCap = 50 * kNsPerMs;

std::uint64_t scenario_seed(const CampaignConfig& config, int index) {
  std::uint64_t s = config.seed ^ 0x6772617943616d70ULL;  // "grayCamp"
  std::uint64_t mixed = 0;
  for (int i = 0; i <= index; ++i) mixed = splitmix64(s);
  return mixed;
}

}  // namespace

ScenarioSpec make_gray_scenario(const CampaignConfig& config, int index) {
  const Topology topo = campaign_torus();
  const std::uint64_t seed = scenario_seed(config, index);

  ScenarioSpec spec;
  sim::R2c2SimConfig& sc = spec.sim_config;
  // The full robustness stack, armed: reliability with adaptive RTO and
  // per-flow retransmit jitter, keepalive detection with phi-accrual
  // suspicion, lease/GC view healing, and ambient corruption.
  sc.reliable = true;
  sc.rto = 150 * kNsPerUs;
  sc.max_retransmits = 32;
  sc.adaptive_rto = true;
  sc.max_rto = 5000 * kNsPerUs;
  sc.retransmit_jitter = true;
  sc.keepalive_interval = 10 * kNsPerUs;
  sc.adaptive_detection = true;
  sc.lease_interval = 100 * kNsPerUs;
  sc.net.corruption_rate = 2e-4;
  sc.engine_shards = config.engine_shards;
  sc.seed = seed;

  // Hard waves + node waves + gray waves. Kept modest per scenario — the
  // campaign's coverage comes from running many independently seeded
  // scenarios, not from one enormous script.
  Rng chaos_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  sim::ChaosConfig cc;
  cc.waves = 2;
  cc.fails_per_wave = 1;
  cc.start = 40 * kNsPerUs;
  cc.mean_wave_gap = 300 * kNsPerUs;
  cc.mean_down_time = 400 * kNsPerUs;
  cc.node_waves = 1;
  cc.gray_waves = 3;
  cc.grays_per_wave = 2;
  cc.mean_gray_time = 600 * kNsPerUs;
  sc.faults = sim::make_chaos_script(topo, chaos_rng, cc);

  WorkloadConfig wl;
  wl.num_nodes = topo.num_nodes();
  wl.num_flows = static_cast<std::size_t>(config.flows);
  wl.mean_interarrival = 5 * kNsPerUs;
  wl.max_bytes = 96 * 1024;
  wl.seed = seed;
  spec.arrivals = generate_poisson_uniform(wl);
  return spec;
}

namespace {

// One campaign run of `spec` on the campaign torus at `workers`, digested
// on the absolute digest_every grid.
snapshot::Scenario make_run(const ScenarioSpec& spec, int workers, TimeNs digest_every) {
  sim::R2c2SimConfig sc = spec.sim_config;
  sc.engine_workers = workers;
  return snapshot::Scenario(campaign_torus(), std::move(sc), spec.arrivals, digest_every);
}

// resume-digest over one spec, empty when it holds: run a head to the
// straight run's middle digest boundary, archive it in memory, restore it
// into a fresh run of the same spec and compare the tail.
std::string resume_divergence(const ScenarioSpec& spec, const CampaignConfig& config,
                              const snapshot::ReplayResult& straight) {
  if (straight.digests.points.size() < 4) return {};  // too short to cut
  const TimeNs snap_at = straight.digests.points[straight.digests.points.size() / 2].at;
  snapshot::ArchiveWriter w;
  {
    snapshot::Scenario head = make_run(spec, config.base_workers, config.digest_every);
    head.run(snap_at);
    head.simulator().save(w);
  }
  snapshot::Scenario tail = make_run(spec, config.base_workers, config.digest_every);
  snapshot::ArchiveReader r{w.finish()};
  tail.simulator().load(r);
  const std::string why = snapshot::divergence(straight, tail.run(kScenarioRunCap), snap_at);
  return why.empty() ? why : "resumed after snapshot at t=" + std::to_string(snap_at) + ": " + why;
}

// worker-digest over one spec, empty when it holds: base_workers vs
// alt_workers.
std::string worker_divergence(const ScenarioSpec& spec, const CampaignConfig& config,
                              const snapshot::ReplayResult& base) {
  if (config.alt_workers <= 0 || config.alt_workers == config.base_workers) return {};
  const std::string why = snapshot::divergence(
      base, make_run(spec, config.alt_workers, config.digest_every).run(kScenarioRunCap));
  return why.empty() ? why
                     : "workers=" + std::to_string(config.base_workers) + " vs workers=" +
                           std::to_string(config.alt_workers) + ": " + why;
}


// Ground-truth intervals during which the scripted hard-failure set
// disconnects the rack. While disconnected, the control plane *cannot*
// rebuild (make_degraded has no valid topology) and by design retries
// until restores reconnect it — so the recovery-bound invariant credits
// this time to the episode rather than calling the stall a violation.
// One-way failures count as full cable cuts (detection marks the whole
// cable down) and a failed node downs its incident cables, both mirroring
// the injector's apply order; gray events never take links down.
std::vector<std::pair<TimeNs, TimeNs>> disconnected_intervals(const Topology& topo,
                                                              const sim::FaultScript& script) {
  std::vector<char> down(topo.num_links(), 0);
  auto set_cable = [&](LinkId link, char v) {
    down[link] = v;
    const LinkId rev = topo.reverse(link);
    if (rev != kInvalidLink) down[rev] = v;
  };
  auto connected = [&] {
    std::vector<char> seen(topo.num_nodes(), 0);
    std::vector<NodeId> stack{0};
    seen[0] = 1;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const LinkId id : topo.out_links(u)) {
        if (down[id]) continue;
        const NodeId v = topo.link(id).to;
        if (!seen[v]) {
          seen[v] = 1;
          ++reached;
          stack.push_back(v);
        }
      }
    }
    return reached == topo.num_nodes();
  };
  std::vector<std::pair<TimeNs, TimeNs>> intervals;
  bool was_connected = true;
  TimeNs disconnected_since = 0;
  for (const sim::FaultEvent& ev : script.events) {
    switch (ev.kind) {
      case sim::FaultEvent::Kind::kFailLink:
      case sim::FaultEvent::Kind::kFailLinkOneWay:
        set_cable(ev.link, 1);
        break;
      case sim::FaultEvent::Kind::kRestoreLink:
      case sim::FaultEvent::Kind::kRestoreLinkOneWay:
        set_cable(ev.link, 0);
        break;
      case sim::FaultEvent::Kind::kFailNode:
      case sim::FaultEvent::Kind::kRestoreNode: {
        const char v = ev.kind == sim::FaultEvent::Kind::kFailNode ? 1 : 0;
        for (const LinkId id : topo.out_links(ev.node)) set_cable(id, v);
        break;
      }
      default:
        continue;  // gray events never change connectivity
    }
    const bool now_connected = connected();
    if (was_connected && !now_connected) {
      disconnected_since = ev.at;
    } else if (!was_connected && now_connected) {
      intervals.emplace_back(disconnected_since, ev.at);
    }
    was_connected = now_connected;
  }
  if (!was_connected) {
    intervals.emplace_back(disconnected_since, std::numeric_limits<TimeNs>::max());
  }
  return intervals;
}

// Total overlap of [from, to] with the disconnected intervals.
TimeNs disconnected_overlap(const std::vector<std::pair<TimeNs, TimeNs>>& intervals,
                            TimeNs from, TimeNs to) {
  TimeNs total = 0;
  for (const auto& [a, b] : intervals) {
    const TimeNs lo = std::max(from, a);
    const TimeNs hi = std::min(to, b);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

// The single-run invariants (flow-resolution, byte-conservation,
// recovery-bound) over one finished run of `spec`.
std::vector<Violation> check_run_invariants(const ScenarioSpec& spec,
                                            const snapshot::ReplayResult& out,
                                            TimeNs recovery_bound) {
  std::vector<Violation> v;
  const sim::RunMetrics& m = out.metrics;

  // flow-resolution: every flow's fate is known, and known exactly once.
  std::uint64_t delivered = 0;
  for (const sim::FlowRecord& f : m.flows) {
    if (f.finished()) delivered += f.bytes;
    if (f.finished() && f.aborted) {
      v.push_back({"flow-resolution",
                   "flow " + std::to_string(f.id) + " is both finished and aborted"});
    } else if (!f.resolved()) {
      v.push_back({"flow-resolution", "flow " + std::to_string(f.id) + " (" +
                                          std::to_string(f.bytes) +
                                          " bytes) ended the run unresolved"});
    }
  }
  if (m.flow_aborts != static_cast<std::uint64_t>(std::count_if(
                           m.flows.begin(), m.flows.end(),
                           [](const sim::FlowRecord& f) { return f.aborted; }))) {
    v.push_back({"flow-resolution", "flow_aborts counter disagrees with aborted records"});
  }

  // byte-conservation: goodput cannot exceed wire bytes (headers and
  // retransmissions only ever add overhead on top of delivered payload).
  if (delivered > m.data_bytes_on_wire) {
    v.push_back({"byte-conservation",
                 "delivered " + std::to_string(delivered) + " payload bytes but only " +
                     std::to_string(m.data_bytes_on_wire) + " data bytes crossed the wire"});
  }

  // recovery-bound: detected hard failures must rebuild within the bound,
  // net of any time the scripted down set disconnected the rack (no valid
  // degraded topology exists then; the sim retries until restores land).
  const auto gaps = disconnected_intervals(campaign_torus(), spec.sim_config.faults);
  for (const sim::RecoveryRecord& r : m.recoveries) {
    if (!r.failure || r.detected_at < 0) continue;
    if (r.recovered_at < 0) {
      const TimeNs credit = disconnected_overlap(gaps, r.detected_at, m.sim_end);
      if (r.detected_at + credit + recovery_bound < m.sim_end) {
        v.push_back({"recovery-bound", "link " + std::to_string(r.link) + " detected at t=" +
                                           std::to_string(r.detected_at) + " never rebuilt"});
      }
    } else {
      const TimeNs credit = disconnected_overlap(gaps, r.detected_at, r.recovered_at);
      if (r.recovered_at - r.detected_at - credit > recovery_bound) {
        v.push_back({"recovery-bound",
                     "link " + std::to_string(r.link) + " rebuild took " +
                         std::to_string(r.recovered_at - r.detected_at) + " ns (" +
                         std::to_string(credit) + " disconnected; bound " +
                         std::to_string(recovery_bound) + ")"});
      }
    }
  }
  return v;
}

// Does this event subset still violate `invariant`? The ddmin predicate.
bool subset_violates(const ScenarioSpec& base, const CampaignConfig& config,
                     const std::string& invariant,
                     const std::vector<sim::FaultEvent>& events) {
  ScenarioSpec spec = base;
  spec.sim_config.faults.events = events;
  const snapshot::ReplayResult out =
      make_run(spec, config.base_workers, config.digest_every).run(kScenarioRunCap);
  if (invariant == "worker-digest") return !worker_divergence(spec, config, out).empty();
  if (invariant == "resume-digest") return !resume_divergence(spec, config, out).empty();
  for (const Violation& v : check_run_invariants(spec, out, config.recovery_bound)) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

}  // namespace

sim::FaultScript shrink_fault_script(const ScenarioSpec& spec, const CampaignConfig& config,
                                     const std::string& invariant) {
  std::vector<sim::FaultEvent> current = spec.sim_config.faults.events;
  if (!subset_violates(spec, config, invariant, current)) {
    return spec.sim_config.faults;  // full script does not fail: nothing to do
  }
  // Classic ddmin: try removing chunks (complements), halving granularity
  // until single events. Order within the subset is always preserved.
  std::size_t n = 2;
  while (current.size() >= 2) {
    const std::size_t chunk = (current.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t start = 0; start < current.size(); start += chunk) {
      std::vector<sim::FaultEvent> complement;
      complement.reserve(current.size());
      for (std::size_t i = 0; i < current.size(); ++i) {
        if (i < start || i >= start + chunk) complement.push_back(current[i]);
      }
      if (complement.empty()) continue;
      if (subset_violates(spec, config, invariant, complement)) {
        current = std::move(complement);
        n = std::max<std::size_t>(2, n - 1);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= current.size()) break;  // single-event granularity exhausted
      n = std::min(current.size(), n * 2);
    }
  }
  sim::FaultScript out;
  out.events = std::move(current);
  return out;
}

// --- Repro archive ----------------------------------------------------------
// Line-oriented text:
//   r2c2-chaos-repro v1
//   seed <u64>  scenario <i>  shards <k>  workers <w> <alt>  flows <n>
//   digest-every <ns>  recovery-bound <ns>
//   invariant <name>
//   detail <free text to end of line>
//   events <count>
//   <at> <kind> <link> <node> <loss> <corrupt> <latency> <jitter> <period> <down>

void write_repro(const std::string& path, const Repro& repro) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write repro file " + path);
  f.precision(17);  // doubles (loss/corrupt probs) must round-trip bit-exactly
  f << "r2c2-chaos-repro v1\n";
  f << "seed " << repro.config.seed << " scenario " << repro.index << " shards "
    << repro.config.engine_shards << " workers " << repro.config.base_workers << " "
    << repro.config.alt_workers << " flows " << repro.config.flows << "\n";
  f << "digest-every " << repro.config.digest_every << " recovery-bound "
    << repro.config.recovery_bound << "\n";
  f << "invariant " << repro.invariant << "\n";
  f << "detail " << repro.detail << "\n";
  f << "events " << repro.script.events.size() << "\n";
  for (const sim::FaultEvent& e : repro.script.events) {
    f << e.at << " " << static_cast<int>(e.kind) << " " << e.link << " " << e.node << " "
      << e.gray.loss_prob << " " << e.gray.corrupt_prob << " " << e.gray.added_latency << " "
      << e.gray.jitter << " " << e.gray.flap_period << " " << e.gray.flap_down << "\n";
  }
  if (!f.good()) throw std::runtime_error("short write to repro file " + path);
}

Repro load_repro(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read repro file " + path);
  std::string header;
  std::getline(f, header);
  if (header != "r2c2-chaos-repro v1") {
    throw std::runtime_error(path + ": not an r2c2-chaos-repro v1 file");
  }
  Repro repro;
  std::string key;
  f >> key >> repro.config.seed;
  f >> key >> repro.index;
  f >> key >> repro.config.engine_shards;
  f >> key >> repro.config.base_workers >> repro.config.alt_workers;
  f >> key >> repro.config.flows;
  f >> key >> repro.config.digest_every;
  f >> key >> repro.config.recovery_bound;
  f >> key >> repro.invariant;
  f >> key;  // "detail"
  std::getline(f, repro.detail);
  if (!repro.detail.empty() && repro.detail.front() == ' ') repro.detail.erase(0, 1);
  std::size_t count = 0;
  f >> key >> count;
  const auto malformed = [&path](const std::string& what) {
    return std::runtime_error(path + ": " + what);
  };
  if (!f) throw malformed("truncated or malformed repro file");
  if (repro.config.digest_every <= 0) {
    throw malformed("digest-every " + std::to_string(repro.config.digest_every) +
                    " is not positive");
  }
  if (repro.config.flows < 1) {
    throw malformed("flows " + std::to_string(repro.config.flows) + " is below 1");
  }
  // The file comes from outside the program: every id must name an element
  // of the campaign torus before the sim indexes its tables with it.
  const Topology topo = campaign_torus();
  for (std::size_t i = 0; i < count; ++i) {
    sim::FaultEvent e;
    long long at = 0, lat = 0, jit = 0, period = 0, down = 0;
    int kind = 0;
    f >> at >> kind >> e.link >> e.node >> e.gray.loss_prob >> e.gray.corrupt_prob >> lat >>
        jit >> period >> down;
    if (!f) throw malformed("truncated or malformed repro file");
    const std::string event = "event " + std::to_string(i) + ": ";
    if (kind < 0 || kind > static_cast<int>(sim::FaultEvent::Kind::kRestoreLinkOneWay)) {
      throw malformed(event + "unknown kind " + std::to_string(kind));
    }
    e.at = at;
    e.kind = static_cast<sim::FaultEvent::Kind>(kind);
    if (e.kind == sim::FaultEvent::Kind::kFailNode ||
        e.kind == sim::FaultEvent::Kind::kRestoreNode) {
      if (e.node >= topo.num_nodes()) {
        throw malformed(event + "node " + std::to_string(e.node) + " is outside the torus");
      }
    } else if (e.link >= topo.num_links()) {
      throw malformed(event + "link " + std::to_string(e.link) + " is outside the torus");
    }
    // A negative latency would schedule deliveries before the sender's clock.
    const std::pair<const char*, long long> spans[] = {
        {"latency", lat}, {"jitter", jit}, {"flap-period", period}, {"flap-down", down}};
    for (const auto& [field, value] : spans) {
      if (value < 0) throw malformed(event + field + " " + std::to_string(value) + " is negative");
    }
    e.gray.added_latency = lat;
    e.gray.jitter = jit;
    e.gray.flap_period = period;
    e.gray.flap_down = down;
    repro.script.events.push_back(e);
  }
  return repro;
}

bool repro_triggers(const Repro& repro) {
  ScenarioSpec spec = make_gray_scenario(repro.config, repro.index);
  return subset_violates(spec, repro.config, repro.invariant, repro.script.events);
}

CampaignResult run_campaign(const CampaignConfig& config) {
  CampaignResult result;
  for (int i = 0; i < config.scenarios; ++i) {
    const ScenarioSpec spec = make_gray_scenario(config, i);
    ScenarioOutcome sc;
    sc.index = i;
    sc.scenario_seed = spec.sim_config.seed;
    sc.fault_events = spec.sim_config.faults.events.size();

    const snapshot::ReplayResult base =
        make_run(spec, config.base_workers, config.digest_every).run(kScenarioRunCap);
    sc.final_digest = base.final_digest;
    sc.metrics_digest = base.metrics_digest;
    sc.gray_drops = base.metrics.gray_drops;
    sc.flow_aborts = base.metrics.flow_aborts;
    sc.links_demoted = base.metrics.links_demoted;
    sc.violations = check_run_invariants(spec, base, config.recovery_bound);
    if (std::string why = worker_divergence(spec, config, base); !why.empty()) {
      sc.violations.push_back({"worker-digest", std::move(why)});
    }
    if (config.check_resume) {
      if (std::string why = resume_divergence(spec, config, base); !why.empty()) {
        sc.violations.push_back({"resume-digest", std::move(why)});
      }
    }

    sc.passed = sc.violations.empty();
    if (!sc.passed) {
      ++result.failed;
      if (!config.artifact_dir.empty()) {
        Repro repro;
        repro.config = config;
        repro.index = i;
        repro.invariant = sc.violations.front().invariant;
        repro.detail = sc.violations.front().detail;
        repro.script = shrink_fault_script(spec, config, repro.invariant);
        sc.repro_path = config.artifact_dir + "/chaos-repro-" + std::to_string(i) + "-" +
                        repro.invariant + ".txt";
        write_repro(sc.repro_path, repro);
      }
    }
    result.scenarios.push_back(std::move(sc));
  }
  return result;
}

}  // namespace r2c2::chaos
