// Flat single-precision view of a database's connectivity, mirroring the
// device-side arrays a GPU placer uploads once before iterating.
#pragma once

#include <cstdint>
#include <vector>

#include "db/database.h"

namespace xplace::ops {

struct NetlistView {
  std::size_t num_cells = 0;  ///< physical cells (movable + fixed, no fillers)
  std::size_t num_movable = 0;
  std::size_t num_nets = 0;
  std::size_t num_pins = 0;

  std::vector<std::uint32_t> net_start;  ///< CSR offsets, size num_nets+1
  std::vector<std::uint32_t> pin_cell;   ///< size num_pins
  std::vector<std::uint32_t> pin_net;    ///< size num_pins
  std::vector<float> pin_ox, pin_oy;     ///< offsets from cell center
  std::vector<float> net_weight;         ///< per-net weight
  /// 1 for nets included in wirelength (degree >= 2), 0 for degenerate nets.
  std::vector<std::uint8_t> net_mask;

  // ---- net-lane WA layout of the masked nets (DESIGN.md §18) ----
  static constexpr std::size_t kLanes = 8;           ///< nets per group
  static constexpr std::size_t kLaneDegreeCap = 64;  ///< above: 1-lane groups
  /// `nets` nets of `degree` pins; pin i of lane l is slot base + i·lanes + l.
  /// Lanes past `nets` repeat lane 0 and are never read back.
  struct LaneGroup {
    std::uint32_t base, degree, lanes, nets;
    std::uint32_t net[kLanes];
  };
  std::vector<LaneGroup> groups;  ///< by degree, then net id; big nets last
  std::vector<std::uint32_t> slot_cell;
  std::vector<float> slot_ox, slot_oy;
  /// Cell → slot CSR (size num_cells+1), each list in increasing pin id.
  std::vector<std::uint32_t> cell_slot_start, cell_slot;
  std::size_t max_group_slots = 0;  ///< largest degree·lanes of a group

  std::size_t degree(std::size_t e) const { return net_start[e + 1] - net_start[e]; }
};

NetlistView build_netlist_view(const db::Database& db);

}  // namespace xplace::ops
