// Wire formats for R2C2 data and broadcast packets (Section 4.2 / Fig. 6).
//
// Data packets are variable sized. The header carries the length of the
// route (rlen), an index into the route (ridx), the flow id, source,
// destination, sequence number, checksum, payload length, and the 128-bit
// source route. The route uses 3 bits per hop to select the forwarding
// link (at most eight links per node), so routes of up to 42 hops fit.
//
// Broadcast packets are fixed 16 bytes. Following the paper, they carry no
// explicit flow id: they advertise source, destination, the flow's weight
// and priority, its demand in Kbps (up to 4 Tbps), the broadcast spanning
// tree id, the routing strategy in use between the two nodes, and a
// checksum. Because one (src, dst) pair can have several concurrent flows,
// we use the one spare byte of the 16-byte budget as `fseq` — the low
// 8 bits of the sender's per-source flow sequence number — so receivers
// can distinguish them. The flow-start / flow-finish / demand-update event
// is encoded in the packet type byte.
//
// Route-update packets (Section 3.4) advertise new {flow, routing protocol}
// assignments computed by the route-selection process: 5 bytes per entry
// (flow identifier 4 bytes = src + fseq + pad, protocol 1 byte), so ~290
// assignments fit a single 1,500-byte packet.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "routing/routing.h"

namespace r2c2 {

inline constexpr std::size_t kMtuBytes = 1500;

enum class PacketType : std::uint8_t {
  kData = 0,
  kFlowStart = 1,     // broadcast: a new flow started
  kFlowFinish = 2,    // broadcast: a flow terminated
  kDemandUpdate = 3,  // broadcast: a host-limited flow's demand changed
  kRouteUpdate = 4,   // broadcast: new {flow, routing protocol} assignments
  kAck = 5,           // reliability extension (Section 6)
  kDropNotice = 6,    // a node dropped a broadcast; sender should retransmit
  kKeepalive = 7,     // per-link liveness probe (failure detection, Section 3.2)
};

// --- Source route encoding: 3 bits per hop, 128-bit field ---

inline constexpr int kRouteBitsPerHop = 3;
inline constexpr int kMaxRouteHops = 42;  // 126 bits used of 128

class RouteCode {
 public:
  RouteCode() = default;

  // Encodes the list of per-hop output ports. Throws if any port is >= 8 or
  // there are more than 42 hops.
  static RouteCode encode(std::span<const int> ports);

  int length() const { return length_; }
  // Port at hop `i` in [0, length).
  int port_at(int i) const;

  const std::array<std::uint8_t, 16>& bits() const { return bits_; }
  static RouteCode from_bits(const std::array<std::uint8_t, 16>& bits, int length);

  bool operator==(const RouteCode&) const = default;

  // Snapshot field walk (src/snapshot/persist.h): the 16 route bytes, then
  // the hop count.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.bytes(s.bits_);
    v.u8(s.length_);
    v.expect(s.length_ <= kMaxRouteHops, "archived route longer than 42 hops");
  }

 private:
  std::array<std::uint8_t, 16> bits_{};
  int length_ = 0;
};

// Converts a node path into per-hop output ports of the given topology and
// encodes it. The path must follow existing links.
RouteCode encode_path(const Topology& topo, const Path& path);

// --- Data packet header ---

struct DataHeader {
  std::uint8_t rlen = 0;   // total hops in the route
  std::uint8_t ridx = 0;   // index of the next hop to take
  FlowId flow = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t seq = 0;   // byte offset of this packet's payload in the flow
  std::uint16_t plen = 0;  // payload length in bytes
  std::array<std::uint8_t, 16> route{};

  static constexpr std::size_t kWireSize = 1 /*type*/ + 1 /*rlen*/ + 1 /*ridx*/ + 4 /*flow*/ +
                                           2 /*src*/ + 2 /*dst*/ + 4 /*seq*/ + 2 /*checksum*/ +
                                           2 /*plen*/ + 16 /*route*/;  // = 35

  // Serializes header (with computed checksum) into `out`, which must hold
  // at least kWireSize bytes. The checksum covers the header only, with the
  // checksum field zeroed, so intermediate nodes can verify and update ridx
  // without touching the payload.
  void serialize(std::span<std::uint8_t> out) const;

  // Parses and verifies the checksum; returns nullopt on corruption.
  static std::optional<DataHeader> parse(std::span<const std::uint8_t> in);
};

inline constexpr std::size_t kMaxPayloadBytes = kMtuBytes - DataHeader::kWireSize;

// --- 16-byte broadcast packet ---

struct BroadcastMsg {
  PacketType type = PacketType::kFlowStart;  // start / finish / demand-update
  NodeId src = 0;
  NodeId dst = 0;
  std::uint8_t fseq = 0;     // low 8 bits of the sender's flow sequence
  std::uint8_t weight = 1;   // allocation weight (Section 3.3.2)
  std::uint8_t priority = 0; // 0 = highest
  std::uint32_t demand_kbps = 0;  // up to ~4 Tbps
  std::uint8_t tree = 0;     // broadcast spanning tree id
  RouteAlg rp = RouteAlg::kRps;  // routing strategy between the two nodes

  static constexpr std::size_t kWireSize = 16;

  void serialize(std::span<std::uint8_t> out) const;
  static std::optional<BroadcastMsg> parse(std::span<const std::uint8_t> in);

  // Snapshot field walk (src/snapshot/persist.h), in declaration order.
  template <class Self, class V>
  static void persist(Self& s, V& v) {
    v.enum8(s.type, PacketType::kKeepalive);
    v.u16(s.src);
    v.u16(s.dst);
    v.u8(s.fseq);
    v.u8(s.weight);
    v.u8(s.priority);
    v.u32(s.demand_kbps);
    v.u8(s.tree);
    v.enum8(s.rp, RouteAlg::kEcmp);
  }
};

// --- Route-update packet (variable size, Section 3.4) ---

struct RouteUpdateEntry {
  NodeId flow_src = 0;   // flows are identified by (src, fseq)
  std::uint8_t fseq = 0;
  RouteAlg rp = RouteAlg::kRps;
};

struct RouteUpdatePacket {
  // Broadcast routing metadata: the node that ran the selection process and
  // the spanning tree the packet travels along.
  NodeId origin = 0;
  std::uint8_t tree = 0;
  std::vector<RouteUpdateEntry> entries;

  static constexpr std::size_t kHeaderSize =
      1 /*type*/ + 2 /*count*/ + 2 /*checksum*/ + 2 /*origin*/ + 1 /*tree*/;
  static constexpr std::size_t kEntrySize = 5;
  static constexpr std::size_t max_entries_per_packet() {
    return (kMtuBytes - kHeaderSize) / kEntrySize;
  }

  std::size_t wire_size() const { return kHeaderSize + entries.size() * kEntrySize; }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<RouteUpdatePacket> parse(std::span<const std::uint8_t> in);
};

}  // namespace r2c2
