#include "control/flow_table.h"

#include <algorithm>
#include <cmath>

namespace r2c2 {

namespace {

bool specs_equal(const FlowSpec& a, const FlowSpec& b) {
  return a.id == b.id && a.src == b.src && a.dst == b.dst && a.alg == b.alg &&
         a.weight == b.weight && a.priority == b.priority &&
         (a.demand == b.demand || (std::isinf(a.demand) && std::isinf(b.demand)));
}

}  // namespace

std::uint64_t FlowTable::entry_hash(std::uint32_t key, const FlowSpec& spec) {
  // Mix every rate-relevant field; XOR-combining entry hashes makes the
  // view hash order-independent and incrementally updatable.
  std::uint64_t h = key;
  h = h * 0x100000001b3ULL ^ spec.dst;
  h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(spec.alg);
  h = h * 0x100000001b3ULL ^ static_cast<std::uint64_t>(spec.weight * 1024.0);
  h = h * 0x100000001b3ULL ^ spec.priority;
  const std::uint64_t demand_bits =
      std::isfinite(spec.demand) ? static_cast<std::uint64_t>(spec.demand / 1e3) : ~0ULL;
  h = h * 0x100000001b3ULL ^ demand_bits;
  std::uint64_t s = h;
  return splitmix64(s);
}

void FlowTable::insert_hashed(std::uint32_t k, const FlowSpec& spec, TimeNs now) {
  auto [it, inserted] = entries_.try_emplace(k, Entry{spec, now});
  if (!inserted) {
    // Pure lease refresh: same spec re-announced, only the stamp moves.
    // Neither the hash nor the version changes, so cached rate problems
    // keyed on version() stay valid across refresh bursts.
    it->second.lease = std::max(it->second.lease, now);
    if (specs_equal(it->second.spec, spec)) return;
    view_hash_ ^= entry_hash(k, it->second.spec);
    it->second.spec = spec;
  }
  view_hash_ ^= entry_hash(k, spec);
  ++version_;
}

void FlowTable::erase_hashed(std::unordered_map<std::uint32_t, Entry>::iterator it) {
  view_hash_ ^= entry_hash(it->first, it->second.spec);
  entries_.erase(it);
  ++version_;
}

void FlowTable::apply(const BroadcastMsg& msg, TimeNs now) {
  const std::uint32_t k = key(msg.src, msg.fseq);
  switch (msg.type) {
    case PacketType::kFlowStart:
    case PacketType::kDemandUpdate: {
      // Demand updates double as lease refreshes and carry every field a
      // start does, so they also *insert*: a demand update (or periodic
      // refresh) about a flow whose start broadcast was lost resurrects
      // the entry instead of leaving the views diverged until the finish.
      FlowSpec spec;
      spec.id = (static_cast<FlowId>(msg.src) << 16) | msg.fseq;
      spec.src = msg.src;
      spec.dst = msg.dst;
      spec.alg = msg.rp;
      spec.weight = msg.weight;
      spec.priority = msg.priority;
      spec.demand = msg.demand_kbps == 0 ? kUnlimitedDemand
                                         : static_cast<Bps>(msg.demand_kbps) * kKbps;
      insert_hashed(k, spec, now);
      break;
    }
    case PacketType::kFlowFinish: {
      auto it = entries_.find(k);
      if (it != entries_.end()) erase_hashed(it);
      break;
    }
    default:
      break;  // not a flow-table event
  }
}

void FlowTable::apply(const RouteUpdatePacket& pkt) {
  for (const RouteUpdateEntry& e : pkt.entries) {
    auto it = entries_.find(key(e.flow_src, e.fseq));
    if (it != entries_.end() && it->second.spec.alg != e.rp) {
      FlowSpec spec = it->second.spec;
      spec.alg = e.rp;
      insert_hashed(it->first, spec, it->second.lease);
    }
  }
}

void FlowTable::upsert(NodeId src, std::uint8_t fseq, const FlowSpec& spec, TimeNs now) {
  insert_hashed(key(src, fseq), spec, now);
}

void FlowTable::remove(NodeId src, std::uint8_t fseq) {
  auto it = entries_.find(key(src, fseq));
  if (it != entries_.end()) erase_hashed(it);
}

std::optional<FlowSpec> FlowTable::find(NodeId src, std::uint8_t fseq) const {
  auto it = entries_.find(key(src, fseq));
  if (it == entries_.end()) return std::nullopt;
  return it->second.spec;
}

std::optional<TimeNs> FlowTable::lease_of(NodeId src, std::uint8_t fseq) const {
  auto it = entries_.find(key(src, fseq));
  if (it == entries_.end()) return std::nullopt;
  return it->second.lease;
}

std::size_t FlowTable::expire_stale(TimeNs now, TimeNs ttl, NodeId immune_src,
                                    std::vector<FlowSpec>* removed) {
  std::size_t collected = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& e = it->second;
    if (e.spec.src != immune_src && now - e.lease > ttl) {
      if (removed != nullptr) removed->push_back(e.spec);
      view_hash_ ^= entry_hash(it->first, e.spec);
      it = entries_.erase(it);
      ++version_;
      ++collected;
    } else {
      ++it;
    }
  }
  ghosts_expired_ += collected;
  return collected;
}

std::vector<FlowSpec> FlowTable::snapshot() const {
  std::vector<FlowSpec> flows;
  snapshot_into(flows);
  return flows;
}

void FlowTable::snapshot_into(std::vector<FlowSpec>& out) const {
  out.clear();
  out.reserve(entries_.size());
  for (const auto& [k, e] : entries_) out.push_back(e.spec);
  // Canonical order. The allocator's result does not depend on flow order,
  // but its floating-point accumulation patterns do — and a table restored
  // from a snapshot has a different hash-map insertion history than the
  // live one it was saved from. Sorting makes the waterfill input (and so
  // every downstream bit) a pure function of table *contents*.
  std::sort(out.begin(), out.end(),
            [](const FlowSpec& a, const FlowSpec& b) { return a.id < b.id; });
}

}  // namespace r2c2
