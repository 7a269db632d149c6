#include "ops/wirelength.h"

#include <vector>

#include "ops/parallel.h"
#include "tensor/dispatch.h"
#include "util/simd.h"

namespace xplace::ops {
namespace {

using tensor::Dispatcher;

constexpr std::size_t kGroupChunk = 64;   // groups per pooled task
constexpr std::size_t kCellChunk = 1024;  // cells per pooled gather task

/// The net-lane WA loop behind every WA kernel (DESIGN.md §18). Groups run
/// the backend's per-group arithmetic into per-slot gradients and per-net
/// terms; the terms are summed in net order and each cell folds its slots in
/// increasing pin id onto grad[c] — every float and double add in the order
/// of the per-net serial loop, so the result has the same bits with or
/// without a pool, at any pool size. A null grad_x skips the gradient.
WirelengthSums wa_net_lanes(const NetlistView& v, const float* x,
                            const float* y, float gamma, float* grad_x,
                            float* grad_y, bool want_wl, bool want_hpwl,
                            ThreadPool* pool) {
  // The caller's scratch, which pool workers fill through this reference
  // (naming the thread_local inside a task would reach the worker's own);
  // sized once per design, so the steady state allocates nothing.
  struct Scratch {
    std::vector<float> gx, gy;   // slot → weighted gradient
    std::vector<double> wl, hp;  // net → weighted WA / HPWL term
  };
  thread_local Scratch caller;
  Scratch& sc = caller;
  const bool grad = grad_x != nullptr;
  if (grad) {
    sc.gx.resize(v.slot_cell.size());
    sc.gy.resize(v.slot_cell.size());
  }
  if (want_wl) sc.wl.resize(v.num_nets);
  if (want_hpwl) sc.hp.resize(v.num_nets);
  const simd::Kernels& k = simd::active();
  const float inv_gamma = 1.0f / gamma;

  const auto run_groups = [&](std::size_t g0, std::size_t g1) {
    thread_local std::vector<float> tmp;
    tmp.resize(4 * v.max_group_slots);
    double wl[NetlistView::kLanes], hp[NetlistView::kLanes];
    float w[NetlistView::kLanes];
    for (std::size_t gi = g0; gi < g1; ++gi) {
      const NetlistView::LaneGroup& g = v.groups[gi];
      for (std::size_t l = 0; l < NetlistView::kLanes; ++l) {
        w[l] = v.net_weight[g.net[l]];
      }
      k.wa_group({x, y, v.slot_cell.data() + g.base,
                  v.slot_ox.data() + g.base, v.slot_oy.data() + g.base, w,
                  g.degree, g.lanes, inv_gamma, tmp.data(),
                  want_hpwl ? hp : nullptr, want_wl ? wl : nullptr,
                  grad ? sc.gx.data() + g.base : nullptr,
                  grad ? sc.gy.data() + g.base : nullptr});
      for (std::size_t l = 0; l < g.nets; ++l) {
        if (want_wl) sc.wl[g.net[l]] = wl[l];
        if (want_hpwl) sc.hp[g.net[l]] = hp[l];
      }
    }
  };
  const auto gather_cells = [&](std::size_t c0, std::size_t c1) {
    for (std::size_t c = c0; c < c1; ++c) {
      float ax = grad_x[c], ay = grad_y[c];
      for (std::size_t j = v.cell_slot_start[c]; j < v.cell_slot_start[c + 1];
           ++j) {
        ax += sc.gx[v.cell_slot[j]];
        ay += sc.gy[v.cell_slot[j]];
      }
      grad_x[c] = ax;
      grad_y[c] = ay;
    }
  };
  // Runs fn over [0, n) inline, or in chunks of `grain` on the pool.
  const auto split = [pool](std::size_t n, std::size_t grain,
                            const auto& fn) {
    if (pool == nullptr) {
      fn(0, n);
    } else {
      pool->parallel_for(
          n, [&](std::size_t b, std::size_t e, std::size_t) { fn(b, e); },
          grain);
    }
  };
  split(v.groups.size(), kGroupChunk, run_groups);
  if (grad) split(v.num_cells, kCellChunk, gather_cells);

  WirelengthSums sums;
  for (std::size_t e = 0; e < v.num_nets; ++e) {
    if (!v.net_mask[e]) continue;
    if (want_wl) sums.wa += sc.wl[e];
    if (want_hpwl) sums.hpwl += sc.hp[e];
  }
  return sums;
}

}  // namespace

WirelengthSums fused_wl_grad_hpwl(const NetlistView& v, const float* x,
                                  const float* y, float gamma, float* grad_x,
                                  float* grad_y) {
  WirelengthSums sums;
  Dispatcher::global().run("fused_wl_grad_hpwl", [&] {
    sums = wa_net_lanes(v, x, y, gamma, grad_x, grad_y, true, true, nullptr);
  });
  return sums;
}

WirelengthSums fused_wl_grad_hpwl_mt(const NetlistView& v, const float* x,
                                     const float* y, float gamma,
                                     float* grad_x, float* grad_y,
                                     ThreadPool& pool) {
  WirelengthSums sums;
  // Same op name and bits as the serial kernel: the pool changes how the
  // kernel runs, not which kernel runs.
  Dispatcher::global().run("fused_wl_grad_hpwl", [&] {
    sums = wa_net_lanes(v, x, y, gamma, grad_x, grad_y, true, true, &pool);
  });
  return sums;
}

double wa_wirelength(const NetlistView& v, const float* x, const float* y,
                     float gamma) {
  double wl = 0.0;
  Dispatcher::global().run("wa_wirelength", [&] {
    wl = wa_net_lanes(v, x, y, gamma, nullptr, nullptr, true, false, nullptr)
             .wa;
  });
  return wl;
}

void wa_gradient(const NetlistView& v, const float* x, const float* y,
                 float gamma, float* grad_x, float* grad_y) {
  Dispatcher::global().run("wa_gradient", [&] {
    wa_net_lanes(v, x, y, gamma, grad_x, grad_y, false, false, nullptr);
  });
}

double hpwl(const NetlistView& v, const float* x, const float* y) {
  double total = 0.0;
  Dispatcher::global().run("hpwl", [&] {
    total = wa_net_lanes(v, x, y, 1.0f, nullptr, nullptr, false, true, nullptr)
                .hpwl;
  });
  return total;
}

}  // namespace xplace::ops
