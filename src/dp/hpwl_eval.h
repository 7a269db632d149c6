// Incremental HPWL evaluation for detailed placement moves.
//
// All DP passes evaluate a candidate move as "recompute the HPWL of every net
// touching the moved cells, before and after". Nets are deduplicated with a
// stamp array so multi-cell moves (swaps, window permutations, set
// assignments) are charged once per net.
#pragma once

#include <cstdint>
#include <vector>

#include "db/database.h"

namespace xplace::dp {

class HpwlEval {
 public:
  explicit HpwlEval(const db::Database& db);

  /// Sum of weighted HPWL over all nets incident to any of `cells`
  /// (deduplicated), at the database's *current* positions.
  double cells_net_hpwl(const std::uint32_t* cells, std::size_t count);

  /// Convenience for a single cell.
  double cell_net_hpwl(std::uint32_t cell) {
    return cells_net_hpwl(&cell, 1);
  }

  /// Same as cells_net_hpwl, but measured at the explicit position arrays
  /// `x`/`y` (indexed by cell id) instead of the database's current
  /// positions. Lets the local reorder pass price candidate permutations in
  /// its own position arrays without touching the database.
  double cells_net_hpwl_at(const std::uint32_t* cells, std::size_t count,
                           const double* x, const double* y);

  /// Nets incident to `cells`, deduplicated (valid until the next call).
  const std::vector<std::uint32_t>& collect_nets(const std::uint32_t* cells,
                                                 std::size_t count);

 private:
  const db::Database& db_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t stamp_value_ = 0;
  std::vector<std::uint32_t> nets_;
};

}  // namespace xplace::dp
