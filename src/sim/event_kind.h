// Event kinds of the simulation plane (see EventDesc in sim/engine.h). An
// event is its kind plus two operands, and the component that schedules a
// kind registers the one handler the engine runs it with, together with
// the operand check a snapshot load applies (Engine::handle):
//
//   Network        kEvLinkFree, kEvDeliver
//   FaultInjector  kEvFaultApply
//   R2c2Sim        kEvStartFlow, kEvEmitPacket, the six ticks,
//                  kEvRebuildContext, kEvCtrlRetransmit
//   service layer  kEvService, through R2c2Sim's ServiceClient seam
//   TcpSim, PfqSim the kinds after kEvService
//
// R2c2Sim archives pending events as (time, key, kind, a, b), with the
// parked packet in place of `a` for the two kinds that own one, and a
// restored event runs the same handler as a live one. The operand meaning
// per kind is documented inline. Values 1-14 are part of the snapshot
// format; TcpSim and PfqSim never archive their events. Add new kinds at
// the end, never renumber; 0 names no kind.
#pragma once

#include <cstdint>

namespace r2c2::sim {

enum EventKind : std::uint32_t {
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
  kEvTcpStart = 15,       // a = index into TcpSim's arrival list
  kEvTcpRto = 16,         // a = flow id, b = RTO epoch (stale when it no longer matches)
  kEvPfqStart = 17,       // a = index into PfqSim's arrival list
  kEvPfqLinkFree = 18,    // a = link whose serialization finished
  kEvPfqArrive = 19,      // a = link; the packet is the oldest one in flight on it
};

}  // namespace r2c2::sim
