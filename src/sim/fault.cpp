#include "sim/fault.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "sim/event_kind.h"

namespace r2c2::sim {

namespace {

// A gray episode is a flap oscillator of period kChaosGrayFlapPeriod with
// probability kChaosGrayFlapProb, else loss drawn from
// [0.02, kChaosGrayMaxLoss]; each of corruption in [0, kChaosGrayMaxCorrupt],
// added latency up to kChaosGrayMaxLatency and jitter up to
// kChaosGrayMaxJitter joins with probability 1/2. With probability
// kChaosGrayAsymProb only one direction of the cable degrades.
constexpr double kChaosGrayFlapProb = 0.25;
constexpr TimeNs kChaosGrayFlapPeriod = 50 * kNsPerUs;
constexpr double kChaosGrayMaxLoss = 0.30;
constexpr double kChaosGrayMaxCorrupt = 0.02;
constexpr TimeNs kChaosGrayMaxLatency = 3 * kNsPerUs;
constexpr TimeNs kChaosGrayMaxJitter = 2 * kNsPerUs;
constexpr double kChaosGrayAsymProb = 0.25;

// Hard-fault ground truth used while *generating* chaos scripts: which
// directed links are down and which nodes are failed, replayed with the
// same last-write-wins semantics the injector applies at runtime.
struct HardState {
  std::vector<char> down;    // per directed link
  std::vector<char> failed;  // per node
};

void mark_cable(const Topology& topo, std::vector<char>& down, LinkId link, bool is_down) {
  down[link] = is_down ? 1 : 0;
  const LinkId reverse = topo.reverse(link);
  if (reverse != kInvalidLink) down[reverse] = is_down ? 1 : 0;
}

void apply_hard(const Topology& topo, HardState& s, const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::kFailLink:
      mark_cable(topo, s.down, ev.link, true);
      break;
    case FaultEvent::Kind::kRestoreLink:
      mark_cable(topo, s.down, ev.link, false);
      break;
    case FaultEvent::Kind::kFailLinkOneWay:
      s.down[ev.link] = 1;
      break;
    case FaultEvent::Kind::kRestoreLinkOneWay:
      s.down[ev.link] = 0;
      break;
    case FaultEvent::Kind::kFailNode:
      s.failed[ev.node] = 1;
      for (const LinkId id : topo.out_links(ev.node)) mark_cable(topo, s.down, id, true);
      break;
    case FaultEvent::Kind::kRestoreNode:
      s.failed[ev.node] = 0;
      for (const LinkId id : topo.out_links(ev.node)) mark_cable(topo, s.down, id, false);
      break;
    default:
      break;  // gray events never affect connectivity
  }
}

// Replays every hard event with at <= t (time order, ties in script order)
// and returns the cumulative state at t.
HardState state_at(const Topology& topo, const std::vector<FaultEvent>& events, TimeNs t) {
  HardState s{std::vector<char>(topo.num_links(), 0), std::vector<char>(topo.num_nodes(), 0)};
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return events[a].at < events[b].at;
  });
  for (const std::size_t i : order) {
    if (events[i].at > t) break;
    apply_hard(topo, s, events[i]);
  }
  return s;
}

// Connectivity probe over the live-cable graph: BFS from the first live
// (non-failed) node over links not in `down`. Failed nodes have every
// incident cable down, so the invariant is that every *live* node reaches
// every other live node.
bool still_connected(const Topology& topo, const HardState& s) {
  const std::size_t n = topo.num_nodes();
  if (n <= 1) return true;
  std::size_t live = 0;
  NodeId start = kInvalidNode;
  for (std::size_t v = 0; v < n; ++v) {
    if (!s.failed[v]) {
      ++live;
      if (start == kInvalidNode) start = static_cast<NodeId>(v);
    }
  }
  if (live <= 1) return live == 1;
  std::vector<char> seen(n, 0);
  std::deque<NodeId> queue{start};
  seen[start] = 1;
  std::size_t reached = 1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const LinkId id : topo.out_links(u)) {
      if (s.down[id]) continue;
      const NodeId v = topo.link(id).to;
      if (!seen[v]) {
        seen[v] = 1;
        if (!s.failed[v]) ++reached;
        queue.push_back(v);
      }
    }
  }
  return reached == live;
}

bool still_connected(const Topology& topo, const std::vector<char>& down) {
  return still_connected(topo, HardState{down, std::vector<char>(topo.num_nodes(), 0)});
}

// Checks that admitting the candidate events (a fail at `from`, its restore
// at `until`) keeps the live rack connected at every instant of the window:
// the window start plus every already-scripted failure instant inside it,
// each evaluated against the cumulative failed set at that time.
bool window_stays_connected(const Topology& topo, std::vector<FaultEvent>& events, TimeNs from,
                            TimeNs until) {
  if (!still_connected(topo, state_at(topo, events, from))) return false;
  for (const FaultEvent& ev : events) {
    if (ev.is_failure() && ev.at > from && ev.at < until) {
      if (!still_connected(topo, state_at(topo, events, ev.at))) return false;
    }
  }
  return true;
}

}  // namespace

FaultScript make_chaos_script(const Topology& topo, Rng& rng, const ChaosConfig& config) {
  if (!topo.finalized()) throw std::logic_error("topology must be finalized");
  FaultScript script;

  // Phase 1: link waves. Chronological generation with a running down-set,
  // exactly as the original single-phase generator — a seed that produced
  // a given link-wave script before node/gray waves existed still does.
  std::vector<char> down(topo.num_links(), 0);
  // Restores already scheduled but not yet "applied" while generating: the
  // connectivity check at time t must see exactly the cables down at t.
  std::vector<std::pair<TimeNs, LinkId>> pending_restores;

  TimeNs t = config.start;
  for (int wave = 0; wave < config.waves; ++wave) {
    t += static_cast<TimeNs>(rng.exponential(static_cast<double>(config.mean_wave_gap)));
    // Apply restores that happen before this wave.
    for (auto it = pending_restores.begin(); it != pending_restores.end();) {
      if (it->first <= t) {
        mark_cable(topo, down, it->second, false);
        it = pending_restores.erase(it);
      } else {
        ++it;
      }
    }
    for (int f = 0; f < config.fails_per_wave; ++f) {
      // Draw cables until one keeps the rack connected; a bounded number of
      // retries guards against pathological topologies (e.g. a ring where
      // any second cut disconnects).
      bool placed = false;
      for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
        const LinkId cand = random_link(topo, rng);
        if (down[cand]) continue;
        mark_cable(topo, down, cand, true);
        if (!still_connected(topo, down)) {
          mark_cable(topo, down, cand, false);
          continue;
        }
        const TimeNs up_at =
            t + static_cast<TimeNs>(rng.exponential(static_cast<double>(config.mean_down_time)));
        script.events.push_back(FaultScript::fail_link(t, cand));
        script.events.push_back(FaultScript::restore_link(up_at, cand));
        pending_restores.emplace_back(up_at, cand);
        placed = true;
      }
    }
  }

  // Phase 2: node waves. A candidate's whole down window is validated
  // against the *cumulative* failed set — the link waves above plus every
  // node wave admitted so far — by replaying the script at the window
  // start and at every scripted failure instant inside the window. All
  // draws come after every link-wave draw, so enabling node waves never
  // perturbs phase 1.
  TimeNs tn = config.start;
  for (int wave = 0; wave < config.node_waves; ++wave) {
    tn += static_cast<TimeNs>(rng.exponential(static_cast<double>(config.mean_wave_gap)));
    for (int f = 0; f < kChaosNodesPerWave; ++f) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        const NodeId cand =
            static_cast<NodeId>(rng.uniform_int(static_cast<std::uint64_t>(topo.num_nodes())));
        const HardState before = state_at(topo, script.events, tn);
        if (before.failed[cand]) continue;
        const TimeNs up_at =
            tn +
            static_cast<TimeNs>(rng.exponential(static_cast<double>(config.mean_down_time)));
        script.events.push_back(FaultScript::fail_node(tn, cand));
        script.events.push_back(FaultScript::restore_node(up_at, cand));
        if (!window_stays_connected(topo, script.events, tn, up_at)) {
          script.events.pop_back();
          script.events.pop_back();
          continue;
        }
        break;
      }
    }
  }

  // Phase 3: gray waves. Degradation never takes a link down, so no
  // connectivity check applies; overlapping episodes on one cable follow
  // last-write-wins, matching the injector.
  TimeNs tg = config.start;
  for (int wave = 0; wave < config.gray_waves; ++wave) {
    tg += static_cast<TimeNs>(rng.exponential(static_cast<double>(config.mean_wave_gap)));
    for (int g = 0; g < config.grays_per_wave; ++g) {
      const LinkId cand = random_link(topo, rng);
      LinkDegrade gray;
      if (rng.bernoulli(kChaosGrayFlapProb)) {
        gray.flap_period = kChaosGrayFlapPeriod;
        gray.flap_down = static_cast<TimeNs>(static_cast<double>(kChaosGrayFlapPeriod) *
                                             rng.uniform(0.2, 0.6));
      } else {
        gray.loss_prob = rng.uniform(0.02, kChaosGrayMaxLoss);
      }
      if (rng.bernoulli(0.5)) {
        gray.corrupt_prob = rng.uniform(0.0, kChaosGrayMaxCorrupt);
      }
      if (rng.bernoulli(0.5)) {
        gray.added_latency = static_cast<TimeNs>(
            rng.uniform_int(static_cast<std::uint64_t>(kChaosGrayMaxLatency) + 1));
      }
      if (rng.bernoulli(0.5)) {
        gray.jitter = static_cast<TimeNs>(
            rng.uniform_int(static_cast<std::uint64_t>(kChaosGrayMaxJitter) + 1));
      }
      const bool asym = rng.bernoulli(kChaosGrayAsymProb);
      const TimeNs clear_at =
          tg + static_cast<TimeNs>(rng.exponential(static_cast<double>(config.mean_gray_time)));
      if (asym) {
        script.events.push_back(FaultScript::degrade_one_way(tg, cand, gray));
        script.events.push_back(FaultScript::clear_degrade_one_way(clear_at, cand));
      } else {
        script.events.push_back(FaultScript::degrade_link(tg, cand, gray));
        script.events.push_back(FaultScript::clear_degrade(clear_at, cand));
      }
    }
  }

  std::stable_sort(script.events.begin(), script.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return script;
}

FaultInjector::FaultInjector(Engine& engine, Network& net, const Topology& topo,
                             FaultScript script)
    : engine_(engine), net_(net), topo_(topo), script_(std::move(script)) {
  engine_.handle(
      kEvFaultApply, [this](const EventDesc& ev) { apply(script_.events[ev.a]); },
      [this](const EventDesc& ev) { return ev.a < script_.events.size(); });
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector armed twice");
  armed_ = true;
  for (std::size_t i = 0; i < script_.events.size(); ++i) {
    engine_.schedule_at(script_.events[i].at, EventDesc{kEvFaultApply, i, 0});
  }
}

void FaultInjector::set_cable(LinkId link, bool up) {
  set_direction(link, up);
  const LinkId reverse = topo_.reverse(link);
  if (reverse != kInvalidLink) set_direction(reverse, up);
}

void FaultInjector::apply(const FaultEvent& ev) {
  switch (ev.kind) {
    case FaultEvent::Kind::kFailLink:
      set_cable(ev.link, false);
      ++failures_injected_;
      break;
    case FaultEvent::Kind::kRestoreLink:
      set_cable(ev.link, true);
      ++restores_injected_;
      break;
    case FaultEvent::Kind::kFailNode:
      for (const LinkId id : topo_.out_links(ev.node)) set_cable(id, false);
      ++failures_injected_;
      break;
    case FaultEvent::Kind::kRestoreNode:
      for (const LinkId id : topo_.out_links(ev.node)) set_cable(id, true);
      ++restores_injected_;
      break;
    case FaultEvent::Kind::kDegradeLink: {
      net_.set_link_degrade(ev.link, ev.gray);
      const LinkId reverse = topo_.reverse(ev.link);
      if (reverse != kInvalidLink) net_.set_link_degrade(reverse, ev.gray);
      ++degrades_injected_;
      break;
    }
    case FaultEvent::Kind::kClearDegrade: {
      net_.clear_link_degrade(ev.link);
      const LinkId reverse = topo_.reverse(ev.link);
      if (reverse != kInvalidLink) net_.clear_link_degrade(reverse);
      ++degrades_cleared_;
      break;
    }
    case FaultEvent::Kind::kDegradeLinkOneWay:
      net_.set_link_degrade(ev.link, ev.gray);
      ++degrades_injected_;
      break;
    case FaultEvent::Kind::kClearDegradeOneWay:
      net_.clear_link_degrade(ev.link);
      ++degrades_cleared_;
      break;
    case FaultEvent::Kind::kFailLinkOneWay:
      set_direction(ev.link, false);
      ++failures_injected_;
      break;
    case FaultEvent::Kind::kRestoreLinkOneWay:
      set_direction(ev.link, true);
      ++restores_injected_;
      break;
  }
  if (on_event_) on_event_(ev);
}

}  // namespace r2c2::sim
