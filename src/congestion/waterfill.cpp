#include "congestion/waterfill.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace r2c2 {

namespace {

constexpr double kEps = 1e-9;
constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

void WaterfillProblem::build(const Router& router, std::span<const FlowSpec> flows,
                             const AllocationConfig& config) {
  build_rows(router, flows, {}, config);
}

void WaterfillProblem::build_with_choices(const Router& router, std::span<const FlowSpec> flows,
                                          std::span<const RouteAlg> choices,
                                          const AllocationConfig& config) {
  assert(!choices.empty());
  build_rows(router, flows, choices, config);
}

void WaterfillProblem::build_rows(const Router& router, std::span<const FlowSpec> flows,
                                  std::span<const RouteAlg> choices,
                                  const AllocationConfig& config) {
  const Topology& topo = router.topology();
  n_flows_ = flows.size();
  n_choices_ = choices.empty() ? 1 : choices.size();

  const std::size_t n_links = topo.num_links();
  cap_.resize(n_links);
  sat_eps_.resize(n_links);
  for (LinkId l = 0; l < n_links; ++l) {
    const double bw = topo.link(l).bandwidth;
    cap_[l] = bw * (1.0 - config.headroom);
    sat_eps_[l] = kEps * bw + kEps;
  }

  weight_.resize(n_flows_);
  demand_.resize(n_flows_);
  priority_.resize(n_flows_);
  active_.resize(n_flows_);

  csr_link_.clear();
  csr_wfrac_.clear();
  row_off_.clear();
  row_off_.reserve(n_flows_ * n_choices_ + 1);
  row_off_.push_back(0);
  for (std::size_t i = 0; i < n_flows_; ++i) {
    const FlowSpec& f = flows[i];
    weight_[i] = f.weight;
    demand_[i] = std::max<Bps>(f.demand, 0.0);
    priority_[i] = f.priority;
    active_[i] = (f.src != f.dst && f.weight > 0.0) ? 1 : 0;
    for (std::size_t c = 0; c < n_choices_; ++c) {
      if (active_[i]) {
        const RouteAlg alg = choices.empty() ? f.alg : choices[c];
        for (const LinkFraction& lf : router.link_weights(alg, f.src, f.dst, f.id)) {
          csr_link_.push_back(lf.link);
          csr_wfrac_.push_back(f.weight * lf.fraction);
        }
      }
      row_off_.push_back(static_cast<std::uint32_t>(csr_link_.size()));
    }
  }

  // Link->row index by counting sort, with the offsets as the cursors:
  // each link's count becomes its end, then a fill over the rows in
  // descending order walks every end back to its link's start, leaving
  // each link's rows in ascending order.
  lnk_row_off_.assign(n_links + 1, 0);
  for (const LinkId l : csr_link_) ++lnk_row_off_[l];
  std::partial_sum(lnk_row_off_.begin(), lnk_row_off_.end(), lnk_row_off_.begin());
  lnk_flow_.resize(csr_link_.size());
  lnk_choice_.resize(csr_link_.size());
  for (std::size_t i = n_flows_; i-- > 0;) {
    for (std::size_t c = n_choices_; c-- > 0;) {
      const std::size_t r = i * n_choices_ + c;
      for (std::uint32_t k = row_off_[r + 1]; k-- > row_off_[r];) {
        const std::uint32_t at = --lnk_row_off_[csr_link_[k]];
        lnk_flow_[at] = static_cast<std::uint32_t>(i);
        lnk_choice_[at] = static_cast<std::uint8_t>(c);
      }
    }
  }

  // Active flows in strict priority order. Ties keep input order (same as
  // the reference's stable_sort), via the index tie-break.
  order_.clear();
  order_.reserve(n_flows_);
  for (std::uint32_t i = 0; i < n_flows_; ++i) {
    if (active_[i]) order_.push_back(i);
  }
  std::sort(order_.begin(), order_.end(), [&](std::uint32_t a, std::uint32_t b) {
    return priority_[a] != priority_[b] ? priority_[a] < priority_[b] : a < b;
  });
}

void waterfill(const WaterfillProblem& p, std::span<const std::uint8_t> choice,
               WaterfillScratch& s, RateAllocation& out) {
  const std::size_t n_links = p.cap_.size();
  const std::size_t n_flows = p.n_flows_;
  assert(choice.empty() || choice.size() == n_flows);
  out.rate.assign(n_flows, 0.0);
  out.iterations = 0;

  s.resid.assign(p.cap_.begin(), p.cap_.end());
  s.theta_mark.assign(n_links, 0.0);
  s.denom.assign(n_links, 0.0);
  s.link_ver.assign(n_links, 0u);
  s.in_class.assign(n_links, 0);
  s.frozen.assign(n_flows, 0);
  s.touched.clear();
  s.heap.clear();

  const auto selected = [&](std::uint32_t f) -> std::uint32_t {
    return choice.empty() ? 0u : choice[f];
  };
  const auto row = [&](std::uint32_t f) { return f * p.n_choices_ + selected(f); };
  const auto heap_after = [](const WaterfillScratch::SatEvent& a,
                             const WaterfillScratch::SatEvent& b) { return a.theta > b.theta; };

  std::size_t at = 0;
  while (at < p.order_.size()) {
    // Collect one priority class.
    const std::uint8_t prio = p.priority_[p.order_[at]];
    s.cls.clear();
    for (; at < p.order_.size() && p.priority_[p.order_[at]] == prio; ++at) {
      s.cls.push_back(p.order_[at]);
    }

    // Per-link denominators for the class. Row ends are read once per row:
    // the in_class byte store may alias `choice`, so a bound read in the
    // loop condition would reload it every entry.
    for (const std::uint32_t f : s.cls) {
      const std::size_t r = row(f);
      const std::uint32_t end = p.row_off_[r + 1];
      for (std::uint32_t k = p.row_off_[r]; k < end; ++k) {
        const LinkId l = p.csr_link_[k];
        if (!s.in_class[l]) {
          s.in_class[l] = 1;
          s.touched.push_back(l);
          s.theta_mark[l] = 0.0;  // theta restarts at 0 each class
        }
        s.denom[l] += p.csr_wfrac_[k];
      }
    }

    // Seed the saturation-event heap: every touched link's water level at
    // exhaustion, assuming its denominator never changes. Entries go stale
    // (link_ver bump) when a freeze shrinks the denominator; stale entries
    // are lazily refreshed on pop. Stored levels are lower bounds, so the
    // heap minimum is a safe next-event candidate.
    for (const LinkId l : s.touched) {
      if (s.denom[l] > kEps) {
        s.heap.push_back({std::max(0.0, s.resid[l]) / s.denom[l], l, s.link_ver[l]});
      }
    }
    std::make_heap(s.heap.begin(), s.heap.end(), heap_after);

    // Demand events, in increasing water-level order: a sorted walk
    // replaces the reference's per-iteration scan over the class.
    s.demand_order.clear();
    for (const std::uint32_t f : s.cls) {
      if (std::isfinite(p.demand_[f])) s.demand_order.push_back(f);
    }
    std::sort(s.demand_order.begin(), s.demand_order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const double da = p.demand_[a] / p.weight_[a];
                const double db = p.demand_[b] / p.weight_[b];
                return da != db ? da < db : a < b;
              });

    double theta = 0.0;
    std::size_t remaining = s.cls.size();
    std::size_t dp = 0;

    // resid[l] is materialized lazily: between denominator changes,
    // resid_now = resid[l] - denom[l] * (theta - theta_mark[l]), so only
    // the frozen flow's links are touched per freeze, not every link.
    const auto cur_resid = [&](LinkId l) {
      return s.resid[l] - s.denom[l] * (theta - s.theta_mark[l]);
    };
    const auto freeze_flow = [&](std::uint32_t f, double rate) {
      s.frozen[f] = 1;
      out.rate[f] = rate;
      --remaining;
      const std::size_t r = row(f);
      const std::uint32_t end = p.row_off_[r + 1];
      for (std::uint32_t k = p.row_off_[r]; k < end; ++k) {
        const LinkId l = p.csr_link_[k];
        s.resid[l] = cur_resid(l);
        s.theta_mark[l] = theta;
        s.denom[l] -= p.csr_wfrac_[k];
        if (s.denom[l] < kEps) s.denom[l] = 0.0;
        ++s.link_ver[l];
      }
    };
    // Drops stale heap entries, re-pushing a refreshed bound while the
    // link still has active flows.
    const auto refresh_top = [&]() {
      for (;;) {
        if (s.heap.empty()) return;
        const WaterfillScratch::SatEvent top = s.heap.front();
        if (top.ver == s.link_ver[top.link]) return;
        std::pop_heap(s.heap.begin(), s.heap.end(), heap_after);
        s.heap.pop_back();
        const LinkId l = top.link;
        if (s.denom[l] > kEps) {
          const double sat = s.theta_mark[l] + std::max(0.0, s.resid[l]) / s.denom[l];
          s.heap.push_back({sat, l, s.link_ver[l]});
          std::push_heap(s.heap.begin(), s.heap.end(), heap_after);
        }
      }
    };

    while (remaining > 0) {
      ++out.iterations;
      refresh_top();
      const double theta_link = s.heap.empty() ? kInf : s.heap.front().theta;
      while (dp < s.demand_order.size() && s.frozen[s.demand_order[dp]]) ++dp;
      const double theta_demand =
          dp < s.demand_order.size()
              ? p.demand_[s.demand_order[dp]] / p.weight_[s.demand_order[dp]]
              : kInf;
      const double theta_next = std::min(theta_link, theta_demand);
      if (!std::isfinite(theta_next)) {
        // No flow crosses a capacitated link and no demands bound: freeze
        // everything at the current level.
        for (const std::uint32_t f : s.cls) {
          if (!s.frozen[f]) {
            s.frozen[f] = 1;
            out.rate[f] = p.weight_[f] * theta;
          }
        }
        remaining = 0;
        break;
      }
      theta = theta_next;

      // Freeze demand-limited flows first (the reference's in-iteration
      // order); the sorted walk stops at the first level beyond theta.
      while (dp < s.demand_order.size()) {
        const std::uint32_t f = s.demand_order[dp];
        if (s.frozen[f]) {
          ++dp;
          continue;
        }
        if (p.demand_[f] / p.weight_[f] <= theta + kEps) {
          freeze_flow(f, p.demand_[f]);
          ++dp;
        } else {
          break;
        }
      }
      // Freeze flows on every link whose residual is exhausted at theta.
      for (;;) {
        refresh_top();
        if (s.heap.empty()) break;
        const LinkId l = s.heap.front().link;
        if (cur_resid(l) > p.sat_eps_[l]) break;
        std::pop_heap(s.heap.begin(), s.heap.end(), heap_after);
        s.heap.pop_back();
        // The link's rows in ascending flow order; a flow freezes if this
        // is its selected row, it is unfrozen, and it is in this class.
        const std::uint32_t end = p.lnk_row_off_[l + 1];
        for (std::uint32_t idx = p.lnk_row_off_[l]; idx < end; ++idx) {
          const std::uint32_t f = p.lnk_flow_[idx];
          if (p.lnk_choice_[idx] == selected(f) && !s.frozen[f] && p.priority_[f] == prio) {
            freeze_flow(f, p.weight_[f] * theta);
          }
        }
      }
    }

    // Clean per-link state for the next priority class; residuals persist.
    for (const LinkId l : s.touched) {
      s.resid[l] = std::max(0.0, cur_resid(l));
      s.theta_mark[l] = 0.0;
      s.denom[l] = 0.0;
      s.in_class[l] = 0;
      ++s.link_ver[l];
    }
    s.touched.clear();
    s.heap.clear();
  }
}

RateAllocation waterfill(const Router& router, std::span<const FlowSpec> flows,
                         const AllocationConfig& config) {
  WaterfillProblem problem;
  problem.build(router, flows, config);
  WaterfillScratch scratch;
  RateAllocation out;
  waterfill(problem, scratch, out);
  return out;
}

std::vector<double> link_loads(const Router& router, std::span<const FlowSpec> flows,
                               std::span<const Bps> rates) {
  assert(flows.size() == rates.size());
  std::vector<double> load(router.topology().num_links(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const FlowSpec& f = flows[i];
    if (f.src == f.dst || rates[i] <= 0.0) continue;
    for (const LinkFraction& lf : router.link_weights(f.alg, f.src, f.dst, f.id)) {
      load[lf.link] += rates[i] * lf.fraction;
    }
  }
  return load;
}

Bps saturation_rate(const Router& router, std::span<const FlowSpec> flows) {
  const Topology& topo = router.topology();
  std::vector<double> frac_sum(topo.num_links(), 0.0);
  for (const FlowSpec& f : flows) {
    if (f.src == f.dst) continue;
    for (const LinkFraction& lf : router.link_weights(f.alg, f.src, f.dst, f.id)) {
      frac_sum[lf.link] += lf.fraction;
    }
  }
  Bps rate = kUnlimitedDemand;
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    if (frac_sum[l] > kEps) rate = std::min(rate, topo.link(l).bandwidth / frac_sum[l]);
  }
  return rate;
}

}  // namespace r2c2
