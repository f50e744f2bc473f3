// Descriptor kinds for every engine event the R2C2 simulation plane
// schedules (see EventDesc in sim/engine.h). Snapshot/restore serializes
// pending events as (time, key, kind, a, b), with the parked packet in
// place of `a` for the two kinds that own one, and rebuilds the closures
// from these kinds, so every schedule site in Network, FaultInjector and
// R2c2Sim must tag its events with one of them. The operand meaning per
// kind is documented inline; values are part of the snapshot format — add
// new kinds at the end, never renumber.
#pragma once

#include <cstdint>

namespace r2c2::sim {

enum EventKind : std::uint32_t {
  kEvOpaque = 0,          // untagged (not snapshottable; TcpSim/PfqSim)
  kEvLinkFree = 1,        // a = directed link whose serialization finished
  kEvDeliver = 2,         // a = parked-packet slot, b = receiving node
  kEvStartFlow = 3,       // a = index into R2c2Sim's arrival list
  kEvEmitPacket = 4,      // a = flow id
  kEvRecomputeTick = 5,   // periodic rate recomputation (rho)
  kEvKeepaliveTick = 6,   // per-link liveness probes
  kEvDetectionTick = 7,   // keepalive deadline scan
  kEvLeaseTick = 8,       // periodic flow re-advertisement
  kEvGcTick = 9,          // stale-entry garbage collection
  kEvRebuildContext = 10, // debounced decision-plane rebuild
  kEvFaultApply = 11,     // a = index into the armed FaultScript
  kEvCtrlRetransmit = 12, // a = parked-packet slot, b = directed link
  kEvCongestionTick = 13, // periodic ECN-style congestion sampling (adaptive routing)
  kEvService = 14,        // service-layer timer; a = opcode, b = payload (src/service)
};

}  // namespace r2c2::sim
