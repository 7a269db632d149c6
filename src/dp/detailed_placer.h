// Detailed placement driver: alternates global-swap, independent-set
// matching and local-reordering passes until improvement stalls (the
// ABCDPlace recipe on a single thread).
#pragma once

#include <string>

#include "db/database.h"

namespace xplace {
class ExecutionContext;
class StopToken;
}

namespace xplace::dp {

struct DetailedPlaceConfig {
  int max_rounds = 3;            ///< full GS+ISM+LR rounds
  double min_improvement = 5e-4; ///< stop when a round improves less than this
  double swap_radius_rows = 6.0; ///< global-swap radius in row heights
  int reorder_window = 3;
  int ism_max_set = 16;
  bool enable_global_swap = true;
  bool enable_ism = true;
  bool enable_local_reorder = true;
  /// Cooperative stop, polled at pass boundaries (between GS/ISM/LR passes
  /// and between rounds). Each pass preserves legality, so an interrupted DP
  /// returns early with a legal, partially-optimized placement. Null = off.
  const StopToken* stop = nullptr;
};

/// Seconds and accepted moves of one kind of pass, summed over rounds.
struct SubPassTotals {
  double seconds = 0.0;
  std::size_t moves = 0;
};

struct DetailedPlaceResult {
  double hpwl_before = 0.0;
  double hpwl_after = 0.0;
  int rounds = 0;
  std::size_t moves_accepted = 0;
  double seconds = 0.0;
  SubPassTotals global_swap, ism, local_reorder;

  std::string summary() const;
};

/// Runs on a *legal* placement and preserves legality. Every pass runs on
/// the calling thread (their move chains are sequential), so the result does
/// not depend on the thread count; the `ExecutionContext` parameter is
/// ignored (the flow benchmark still passes one).
DetailedPlaceResult detailed_place(db::Database& db,
                                   const DetailedPlaceConfig& cfg = {},
                                   const ExecutionContext* = nullptr);

}  // namespace xplace::dp
