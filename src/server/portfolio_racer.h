// Racing policy for portfolio runs (DESIGN.md §14): which members of a
// K-way perturbed-restart portfolio are strict laggards and should be killed
// early so their core-seconds go back to the budget.
//
// Pure decision logic — the server samples each member's newest Recorder
// event (HPWL/overflow/iteration) from its event ring under the server lock,
// builds MemberProgress rows, and acts on the ids this module returns. Kept
// transport- and lock-free so the policy is unit-testable in isolation.
#pragma once

#include <cstdint>
#include <vector>

namespace xplace::server {

/// One member's newest progress sample, read from its event ring.
struct MemberProgress {
  std::uint64_t id = 0;
  bool terminal = false;     ///< already settled (any terminal state)
  bool has_progress = false; ///< at least one iteration event observed
  int iter = 0;              ///< newest event's iteration
  double hpwl = 0.0;         ///< newest event's HPWL
  double overflow = 1.0;     ///< newest event's overflow
};

/// When to call a member a strict laggard. Defaults are deliberately
/// conservative: a member dies only when it is behind the current leader on
/// *both* metrics — HPWL by a 15% margin *and* overflow (annealing progress)
/// by an absolute 0.05 — after both have run long enough to be comparable.
struct RacePolicy {
  int min_iter = 100;         ///< don't judge anyone before this iteration
  double hpwl_margin = 1.15;  ///< laggard needs hpwl > leader.hpwl × this
  double overflow_slack = 0.05;  ///< and overflow > leader.overflow + this
  std::size_t min_survivors = 1; ///< never race below this many live members
  bool no_kill = false;          ///< disable early kill entirely
};

/// Returns the ids of live members to cancel now. The leader (lowest HPWL
/// among judgeable live members) is never returned; members without progress
/// samples (still queued, or ring empty) are never returned; at least
/// `min_survivors` live members always remain.
std::vector<std::uint64_t> laggards_to_kill(
    const std::vector<MemberProgress>& members, const RacePolicy& policy);

}  // namespace xplace::server
