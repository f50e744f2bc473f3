// Each node's local view of the rack's global traffic matrix (Section 3.1).
//
// Nodes learn about flows from 16-byte broadcast packets. On the wire a
// flow is identified by (src, fseq) — the paper's broadcast format has no
// explicit flow-id field, so the spare byte carries the low 8 bits of the
// sender's flow sequence number (see packet.h). The table synthesizes the
// canonical FlowId as (src << 16) | fseq for learned flows.
//
// The table keeps a rolling order-independent hash of its contents so that
// a simulator can share one rate computation among all nodes whose views
// are identical (which is the steady state between broadcast bursts).
//
// Lease protocol (robustness hardening): broadcasts are best-effort, so a
// lost flow-finish would otherwise leave a ghost entry forever, permanently
// under-allocating real flows. Every entry therefore carries a lease stamp
// — the local receive time of the last broadcast about the flow. Senders
// periodically re-advertise their live flows (demand-update broadcasts
// double as lease refreshes, and they *insert* when the original start was
// lost), and expire_stale() garbage-collects entries whose lease ran out.
// The lease stamp is local bookkeeping: it never contributes to view_hash,
// so refreshes received at different times keep identical views hashing
// identically across nodes.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "congestion/waterfill.h"
#include "packet/packet.h"

namespace r2c2 {

class FlowTable {
 public:
  // Wire-level flow key.
  static constexpr std::uint32_t key(NodeId src, std::uint8_t fseq) {
    return (static_cast<std::uint32_t>(src) << 8) | fseq;
  }

  // Encodes a flow-start / flow-finish / demand-update broadcast about
  // `spec`, whose wire key is (spec.src, fseq): the one encoder for
  // apply(). A finish carries only the key, dst and routing strategy; a
  // start or demand update adds the 8-bit weight (rounded), the priority
  // and the demand in kbps (0 = network-limited).
  static BroadcastMsg announce(PacketType type, const FlowSpec& spec, std::uint8_t fseq);
  // Applies a flow-start / flow-finish / demand-update broadcast. `now`
  // stamps the entry's lease (callers without a clock may leave it 0, which
  // effectively disables lease GC for entries they create).
  void apply(const BroadcastMsg& msg, TimeNs now = 0);
  // Applies a route-update broadcast (Section 3.4).
  void apply(const RouteUpdatePacket& pkt);

  // Direct manipulation, used by the sender for its own flows (a sender
  // knows its flows before anyone else) and by tests.
  void upsert(NodeId src, std::uint8_t fseq, const FlowSpec& spec, TimeNs now = 0);
  void remove(NodeId src, std::uint8_t fseq);
  std::optional<FlowSpec> find(NodeId src, std::uint8_t fseq) const;
  // Lease stamp of an entry (last apply/upsert time), if present.
  std::optional<TimeNs> lease_of(NodeId src, std::uint8_t fseq) const;

  // Garbage-collects entries whose lease is older than `ttl` at time `now`.
  // Entries from `immune_src` are never collected (a node's own flows are
  // authoritative — it closes them itself). Removed specs are appended to
  // `removed` when given. Returns the number of entries collected.
  std::size_t expire_stale(TimeNs now, TimeNs ttl, NodeId immune_src = kInvalidNode,
                           std::vector<FlowSpec>* removed = nullptr);
  // Cumulative count of entries ever collected by expire_stale (the
  // ghost-flow divergence counter surfaced in sim metrics).
  std::uint64_t ghosts_expired() const { return ghosts_expired_; }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Snapshot of all known flows, in unspecified order, for the allocator.
  std::vector<FlowSpec> snapshot() const;
  // Allocation-friendly variant: clears and refills `out`, reusing its
  // capacity (for per-rho recomputation loops).
  void snapshot_into(std::vector<FlowSpec>& out) const;

  // Order-independent digest of the current contents. Two nodes with equal
  // view_hash see the same traffic matrix (up to hash collision). Lease
  // stamps are excluded, so refresh timing never desynchronizes hashes.
  std::uint64_t view_hash() const { return view_hash_; }
  // Monotone change counter (bumped on every content mutation; a pure
  // lease refresh that changes no spec field does not count).
  std::uint64_t version() const { return version_; }

  // Snapshot field walk (src/snapshot/persist.h): entries in key order, so
  // a table rebuilt from its own archive is byte-identical regardless of
  // either table's hash-map insertion history, then the view hash, version
  // and GC counter. The caller picks the section tag: a rack holds one
  // table per node.
  template <class Self, class V>
  static void persist(Self& s, V& v, std::string_view tag) {
    v.section(tag, [&] {
      v.map(s.entries_, [&v](auto& key, auto& e) {
        v.u32(key);
        FlowSpec::persist(e.spec, v);
        v.i64(e.lease);
      });
      v.u64(s.view_hash_);
      v.u64(s.version_);
      v.u64(s.ghosts_expired_);
    });
  }

 private:
  struct Entry {
    FlowSpec spec;
    TimeNs lease = 0;
  };

  static std::uint64_t entry_hash(std::uint32_t key, const FlowSpec& spec);
  void insert_hashed(std::uint32_t k, const FlowSpec& spec, TimeNs now);
  void erase_hashed(std::unordered_map<std::uint32_t, Entry>::iterator it);

  std::unordered_map<std::uint32_t, Entry> entries_;
  std::uint64_t view_hash_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t ghosts_expired_ = 0;
};

}  // namespace r2c2
