// Local reordering: slide a window of k consecutive cells along each row and
// try every permutation, repacking the permuted cells from the window start
// (total width is preserved, so legality is maintained; slack moves to the
// window's right edge). The classic cheap DP pass in NTUPlace/ABCDPlace.
#pragma once

#include "db/database.h"

namespace xplace {
class ExecutionContext;
}

namespace xplace::dp {

struct PassStats {
  double hpwl_before = 0.0;
  double hpwl_after = 0.0;
  std::size_t moves_accepted = 0;
  double seconds = 0.0;
};

/// One sweep over all rows in order with the given window size (3 or 4 are
/// typical); each row sees the accepts of the rows before it. Returns
/// accepted-move statistics; the database is updated in place. Runs on the
/// calling thread; the `ExecutionContext` parameter is ignored (the flow
/// benchmark still passes one).
PassStats local_reorder_pass(db::Database& db, int window,
                             const ExecutionContext* = nullptr);

}  // namespace xplace::dp
