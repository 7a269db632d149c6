// Weighted-average (WA) wirelength operators — Equations (4)/(6) of the
// paper — at three fusion levels:
//
//   * `fused_wl_grad_hpwl` — Xplace's *operator combination* (Section 3.1.1):
//     one kernel computes the numerically-stable WA wirelength, its analytic
//     gradient, and the exact HPWL, sharing the per-net min/max scan.
//   * `wa_wirelength` / `wa_gradient` / `hpwl` — DREAMPlace-style separate
//     kernels (each re-derives the min/max it needs). Used by the ablation
//     tier with operator reduction ON but combination OFF.
//   * the tape-decomposed elementary-op implementation lives in
//     wirelength_tape.h (operator reduction OFF).
//
// The fused and separate kernels (and fused_wl_grad_hpwl_mt, ops/parallel.h)
// run one net-lane loop (DESIGN.md §18) and give the same bits as a
// per-net loop over the nets in order.
//
// Gradient convention: gradients of Σ_e w_e·WL_e(p) with respect to cell
// centers are *accumulated* into grad_x/grad_y (callers zero them first).
// The per-net max/min positions are treated as constants when differentiating
// (standard WA practice); the stable form used is
//   dWLmax/dx_i = s_i (1 + (x_i - WLmax)/γ) / S,
//   dWLmin/dx_i = u_i (1 - (x_i - WLmin)/γ) / U.
#pragma once

#include "ops/netlist_view.h"

namespace xplace::ops {

struct WirelengthSums {
  double wa = 0.0;    ///< Σ_e w_e (WL_e(x) + WL_e(y))
  double hpwl = 0.0;  ///< Σ_e w_e HPWL_e
};

/// One fused kernel: WA wirelength + gradient + HPWL (operator combination).
WirelengthSums fused_wl_grad_hpwl(const NetlistView& view, const float* x,
                                  const float* y, float gamma, float* grad_x,
                                  float* grad_y);

/// WA wirelength only (separate kernel, own min/max scan).
double wa_wirelength(const NetlistView& view, const float* x, const float* y,
                     float gamma);

/// WA gradient only (separate kernel, own min/max scan).
void wa_gradient(const NetlistView& view, const float* x, const float* y,
                 float gamma, float* grad_x, float* grad_y);

/// Exact HPWL (separate kernel, own min/max scan).
double hpwl(const NetlistView& view, const float* x, const float* y);

}  // namespace xplace::ops
