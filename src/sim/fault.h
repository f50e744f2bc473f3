// Runtime fault injection for the packet-level simulator (Section 3.2 made
// dynamic).
//
// The seed reproduction exercised failures statically: make_degraded() ran
// before the simulation and the host re-pointed every stack by hand. A
// production rack treats link flaps as steady state, so this module scripts
// failures *into* a running simulation:
//
//   - FaultScript: a time-ordered list of fail/restore/degrade events.
//     Hand-written for targeted tests, or generated by make_chaos_script()
//     from the deterministic PRNG — randomized fail/restore waves that
//     provably never disconnect the rack (each candidate cut is
//     connectivity-checked against the cumulative failed set before it is
//     admitted), plus optional node-failure waves and *gray* waves.
//   - FaultInjector: arms the script on the simulation engine and flips
//     Network links at the scripted times. A failed node is expressed as
//     all of its incident cables failing at once.
//
// Fault taxonomy. Hard faults (kFailLink/kFailNode and the asymmetric
// kFailLinkOneWay) take a link dark: every packet sent into it is lost.
// Gray faults (kDegradeLink and the asymmetric kDegradeLinkOneWay) leave
// the link up but degraded: per-packet loss probability, extra corruption
// probability, added latency/jitter, and a square-wave flap oscillator —
// the regimes where a binary up/down keepalive either misses the fault or
// thrashes on it. Per-direction state lives in the Network (each directed
// link has its own up flag and LinkDegrade), so asymmetric faults — one
// direction dead or lossy while the other is clean — are first-class.
//
// The injector only manipulates the physical substrate (Network link
// state). Detection is the transport's job: R2c2Sim runs per-link
// keepalives with phi-accrual-style suspicion scoring, so demotion,
// declaration of death and the rebuild of topology, routes and broadcast
// trees are triggered by the simulated nodes themselves, never by the test
// harness.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "topology/topology.h"

namespace r2c2::sim {

// Which direction of a cable a ground-truth query refers to. kForward is
// the directed link named by the LinkId itself; kReverse is its pair
// (topo.find_link(to, from)).
enum class LinkDir : std::uint8_t { kForward = 0, kReverse = 1 };

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kFailLink = 0,     // cut the cable carrying `link` (both directions)
    kRestoreLink = 1,  // splice it back
    kFailNode = 2,     // cut every cable incident to `node`
    kRestoreNode = 3,  // restore every cable incident to `node`
    // Gray faults: the link stays up but degrades per `gray`.
    kDegradeLink = 4,        // degrade both directions of the cable
    kClearDegrade = 5,       // both directions back to clean
    kDegradeLinkOneWay = 6,  // asymmetric: degrade only the directed `link`
    kClearDegradeOneWay = 7,
    // Asymmetric hard faults: one direction dark, the other untouched.
    kFailLinkOneWay = 8,
    kRestoreLinkOneWay = 9,
  };

  TimeNs at = 0;
  Kind kind = Kind::kFailLink;
  LinkId link = kInvalidLink;  // all link-scoped kinds
  NodeId node = kInvalidNode;  // kFailNode / kRestoreNode
  LinkDegrade gray;            // kDegradeLink / kDegradeLinkOneWay

  bool is_failure() const {
    return kind == Kind::kFailLink || kind == Kind::kFailNode ||
           kind == Kind::kFailLinkOneWay;
  }
  bool is_gray() const {
    return kind == Kind::kDegradeLink || kind == Kind::kClearDegrade ||
           kind == Kind::kDegradeLinkOneWay || kind == Kind::kClearDegradeOneWay;
  }
};

struct FaultScript {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  static FaultEvent fail_link(TimeNs at, LinkId link) {
    return {at, FaultEvent::Kind::kFailLink, link, kInvalidNode, {}};
  }
  static FaultEvent restore_link(TimeNs at, LinkId link) {
    return {at, FaultEvent::Kind::kRestoreLink, link, kInvalidNode, {}};
  }
  static FaultEvent fail_node(TimeNs at, NodeId node) {
    return {at, FaultEvent::Kind::kFailNode, kInvalidLink, node, {}};
  }
  static FaultEvent restore_node(TimeNs at, NodeId node) {
    return {at, FaultEvent::Kind::kRestoreNode, kInvalidLink, node, {}};
  }
  static FaultEvent degrade_link(TimeNs at, LinkId link, const LinkDegrade& gray) {
    return {at, FaultEvent::Kind::kDegradeLink, link, kInvalidNode, gray};
  }
  static FaultEvent clear_degrade(TimeNs at, LinkId link) {
    return {at, FaultEvent::Kind::kClearDegrade, link, kInvalidNode, {}};
  }
  static FaultEvent degrade_one_way(TimeNs at, LinkId link, const LinkDegrade& gray) {
    return {at, FaultEvent::Kind::kDegradeLinkOneWay, link, kInvalidNode, gray};
  }
  static FaultEvent clear_degrade_one_way(TimeNs at, LinkId link) {
    return {at, FaultEvent::Kind::kClearDegradeOneWay, link, kInvalidNode, {}};
  }
  static FaultEvent fail_one_way(TimeNs at, LinkId link) {
    return {at, FaultEvent::Kind::kFailLinkOneWay, link, kInvalidNode, {}};
  }
  static FaultEvent restore_one_way(TimeNs at, LinkId link) {
    return {at, FaultEvent::Kind::kRestoreLinkOneWay, link, kInvalidNode, {}};
  }
};

// Chaos mode: `waves` rounds of cable failures at mean interval
// `mean_wave_gap`, each failed cable restored after mean `mean_down_time`.
// All randomness comes from `rng`, so a seed reproduces the exact script.
// Every generated hard failure keeps the live part of the rack connected
// given everything still down at that scripted time (candidates that would
// disconnect are rejected and redrawn), so in-flight traffic can always
// route around. Generation is phased — link waves, then node waves, then
// gray waves — so enabling a later phase never perturbs the draws (and
// thus the script) of an earlier one for a given seed.
struct ChaosConfig {
  int waves = 8;
  int fails_per_wave = 1;
  TimeNs start = 0;  // first wave time
  TimeNs mean_wave_gap = 500 * kNsPerUs;
  TimeNs mean_down_time = 800 * kNsPerUs;

  // Node-failure waves: a whole node loses every incident cable, restored
  // after mean `mean_down_time`. Candidates are checked against the
  // *cumulative* failed set — every link/node failure active at any instant
  // of the candidate's down window — so surviving nodes always stay
  // connected.
  int node_waves = 0;
  int nodes_per_wave = 1;

  // Gray waves: link degradation episodes cleared after mean
  // `mean_gray_time`. Parameters are drawn per event; with probability
  // `asym_prob` only one direction of the cable degrades. Gray faults never
  // take a link down, so no connectivity check applies.
  int gray_waves = 0;
  int grays_per_wave = 1;
  TimeNs mean_gray_time = 1200 * kNsPerUs;
  double gray_max_loss = 0.30;       // loss_prob drawn from [0.02, max]
  double gray_max_corrupt = 0.02;    // corrupt_prob drawn from [0, max]
  TimeNs gray_max_latency = 3 * kNsPerUs;
  TimeNs gray_max_jitter = 2 * kNsPerUs;
  double flap_prob = 0.25;           // flap oscillator instead of loss
  TimeNs flap_period = 50 * kNsPerUs;
  double asym_prob = 0.25;
};

FaultScript make_chaos_script(const Topology& topo, Rng& rng, const ChaosConfig& config);

class FaultInjector {
 public:
  // `on_event` (optional) fires after each event is applied — the transport
  // hooks it for recovery metrics. Bidirectional events flip both
  // directions of the affected cables; one-way events touch only the named
  // directed link. Registers the kEvFaultApply handler on `engine`.
  FaultInjector(Engine& engine, Network& net, const Topology& topo, FaultScript script);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void set_on_event(std::function<void(const FaultEvent&)> fn) { on_event_ = std::move(fn); }

  // Schedules every scripted event on the engine. Call once, before run().
  void arm();

  std::uint64_t failures_injected() const { return failures_injected_; }
  std::uint64_t restores_injected() const { return restores_injected_; }
  std::uint64_t degrades_injected() const { return degrades_injected_; }
  std::uint64_t degrades_cleared() const { return degrades_cleared_; }
  // Ground truth, per direction (the transport must *detect* this on its
  // own). `link_up(l)` queries the directed link `l` itself;
  // `link_up(l, kReverse)` the paired direction; `cable_up(l)` both.
  bool link_up(LinkId link, LinkDir dir = LinkDir::kForward) const {
    const LinkId l = dir == LinkDir::kForward ? link : topo_.reverse(link);
    // A cable with no paired reverse (unidirectional topology edge) has
    // nothing to be down in that direction.
    return l == kInvalidLink || net_.link_up(l);
  }
  bool cable_up(LinkId link) const {
    return link_up(link, LinkDir::kForward) && link_up(link, LinkDir::kReverse);
  }
  LinkDegrade link_degrade(LinkId link, LinkDir dir = LinkDir::kForward) const {
    const LinkId l = dir == LinkDir::kForward ? link : topo_.reverse(link);
    return l == kInvalidLink ? LinkDegrade{} : net_.link_degrade(l);
  }

  // --- Snapshot support (src/snapshot/) ---
  // The script itself is part of the config fingerprint (the restoring run
  // must be constructed with the identical script); only the armed flag and
  // the progress counters are archived. A pending kEvFaultApply event
  // names its script index.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.section("fault_injector", [&] {
      v.flag(s.armed_);
      v.u64(s.failures_injected_);
      v.u64(s.restores_injected_);
      v.u64(s.degrades_injected_);
      v.u64(s.degrades_cleared_);
    });
  }
  const FaultScript& script() const { return script_; }

 private:
  void apply(const FaultEvent& ev);
  // Per-direction primitive; set_cable is the bidirectional-atomic wrapper
  // built on top of it (legacy kinds keep cable semantics).
  void set_direction(LinkId link, bool up) { net_.set_link_up(link, up); }
  void set_cable(LinkId link, bool up);

  Engine& engine_;
  Network& net_;
  const Topology& topo_;
  FaultScript script_;
  std::function<void(const FaultEvent&)> on_event_;
  std::uint64_t failures_injected_ = 0;
  std::uint64_t restores_injected_ = 0;
  std::uint64_t degrades_injected_ = 0;
  std::uint64_t degrades_cleared_ = 0;
  bool armed_ = false;
};

}  // namespace r2c2::sim
