#include "ops/netlist_view.h"

#include <algorithm>

namespace xplace::ops {
namespace {

// Buckets the masked nets by degree into groups of kLanes (net order within
// a degree; nets above the cap become 1-lane groups), transposes their pins
// into slots, and lists each cell's slots in increasing pin id.
void build_lane_layout(const db::Database& db, NetlistView& v) {
  constexpr std::size_t kLanes = NetlistView::kLanes;
  constexpr std::size_t kCap = NetlistView::kLaneDegreeCap;
  std::vector<std::vector<std::uint32_t>> by_degree(kCap + 1);
  std::vector<std::uint32_t> big;
  std::size_t slots = 0, pins = 0, groups = 0;
  for (std::uint32_t e = 0; e < v.num_nets; ++e) {
    if (!v.net_mask[e]) continue;
    const std::size_t d = v.degree(e);
    pins += d;
    if (d > kCap) {
      big.push_back(e);
      slots += d;
      ++groups;
    } else {
      if (by_degree[d].size() % kLanes == 0) {
        slots += kLanes * d;
        ++groups;
      }
      by_degree[d].push_back(e);
    }
  }
  v.groups.reserve(groups);
  v.slot_cell.resize(slots);
  v.slot_ox.resize(slots);
  v.slot_oy.resize(slots);
  std::vector<std::uint32_t> pin_slot(v.num_pins);
  std::uint32_t base = 0;
  const auto add_group = [&](const std::uint32_t* nets, std::size_t count,
                             std::size_t degree, std::size_t lanes) {
    NetlistView::LaneGroup g{base, static_cast<std::uint32_t>(degree),
                             static_cast<std::uint32_t>(lanes),
                             static_cast<std::uint32_t>(count), {}};
    for (std::size_t l = 0; l < kLanes; ++l) g.net[l] = nets[l < count ? l : 0];
    for (std::size_t i = 0; i < degree; ++i) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t p = v.net_start[g.net[l]] + i;
        const std::size_t s = base + i * lanes + l;
        v.slot_cell[s] = v.pin_cell[p];
        v.slot_ox[s] = v.pin_ox[p];
        v.slot_oy[s] = v.pin_oy[p];
        if (l < count) pin_slot[p] = static_cast<std::uint32_t>(s);
      }
    }
    v.groups.push_back(g);
    v.max_group_slots = std::max(v.max_group_slots, degree * lanes);
    base += static_cast<std::uint32_t>(degree * lanes);
  };
  for (std::size_t d = 2; d <= kCap; ++d) {
    for (std::size_t j = 0; j < by_degree[d].size(); j += kLanes) {
      add_group(by_degree[d].data() + j,
                std::min(kLanes, by_degree[d].size() - j), d, kLanes);
    }
  }
  for (const std::uint32_t& e : big) add_group(&e, 1, v.degree(e), 1);

  const std::vector<std::uint32_t>& cell_pins = db.cell_pin_list();
  v.cell_slot_start.assign(v.num_cells + 1, 0);
  v.cell_slot.reserve(pins);
  for (std::size_t c = 0; c < v.num_cells; ++c) {
    for (std::size_t k = db.cell_pin_start(c); k < db.cell_pin_start(c + 1);
         ++k) {
      const std::uint32_t p = cell_pins[k];
      if (v.net_mask[v.pin_net[p]]) v.cell_slot.push_back(pin_slot[p]);
    }
    v.cell_slot_start[c + 1] = static_cast<std::uint32_t>(v.cell_slot.size());
  }
}

}  // namespace

NetlistView build_netlist_view(const db::Database& db) {
  NetlistView v;
  v.num_cells = db.num_physical();
  v.num_movable = db.num_movable();
  v.num_nets = db.num_nets();
  v.num_pins = db.num_pins();
  v.net_start.resize(v.num_nets + 1);
  for (std::size_t e = 0; e <= v.num_nets; ++e) {
    v.net_start[e] = static_cast<std::uint32_t>(
        e < v.num_nets ? db.net_pin_start(e) : db.num_pins());
  }
  v.pin_cell.resize(v.num_pins);
  v.pin_net.resize(v.num_pins);
  v.pin_ox.resize(v.num_pins);
  v.pin_oy.resize(v.num_pins);
  for (std::size_t p = 0; p < v.num_pins; ++p) {
    v.pin_cell[p] = static_cast<std::uint32_t>(db.pin_cell(p));
    v.pin_net[p] = db.pin_net(p);
    v.pin_ox[p] = static_cast<float>(db.pin_offset_x(p));
    v.pin_oy[p] = static_cast<float>(db.pin_offset_y(p));
  }
  v.net_weight.resize(v.num_nets);
  v.net_mask.resize(v.num_nets);
  for (std::size_t e = 0; e < v.num_nets; ++e) {
    v.net_weight[e] = static_cast<float>(db.net_weight(e));
    v.net_mask[e] = db.net_degree(e) >= 2 ? 1 : 0;
  }
  build_lane_layout(db, v);
  return v;
}

}  // namespace xplace::ops
