#include "core/gradient_engine.h"

#include <algorithm>
#include <cmath>

#include "ops/parallel.h"
#include "ops/wirelength.h"
#include "telemetry/trace.h"
#include "tensor/dispatch.h"
#include "util/logging.h"
#include "util/simd.h"

namespace xplace::core {

using tensor::Dispatcher;

GradientEngine::GradientEngine(const db::Database& db, const PlacerConfig& cfg,
                               const ExecutionContext* exec)
    : db_(db),
      cfg_(cfg),
      exec_(exec),
      view_(ops::build_netlist_view(db)),
      grid_(db, cfg.grid_dim),
      solver_(cfg.grid_dim, grid_.bin_w(), grid_.bin_h()),
      n_total_(db.num_cells_total()),
      n_physical_(db.num_physical()),
      n_movable_(db.num_movable()) {
  solver_.set_pool(pool_or_null());
  if (!cfg_.op_reduction) {
    tape_wl_ = std::make_unique<ops::TapeWirelength>(view_);
  }
  dmap_.resize(grid_.num_bins());
  dmap_fl_.resize(grid_.num_bins());
  dmap_total_.resize(grid_.num_bins());
  dgrad_x_.assign(n_total_, 0.0f);
  dgrad_y_.assign(n_total_, 0.0f);
  wl_grad_x_.assign(n_total_, 0.0f);
  wl_grad_y_.assign(n_total_, 0.0f);
  if (cfg_.baseline_extra_ops) pin_scratch_.resize(view_.num_pins);
  if (db.has_fences()) build_fence_systems();
}

void GradientEngine::build_fence_systems() {
  const int num_fences = static_cast<int>(db_.fences().size());
  systems_.resize(num_fences + 1);  // [0..K) fences, [K] default region
  const std::size_t nbins = grid_.num_bins();
  const int m = grid_.m();
  const double bw = grid_.bin_w(), bh = grid_.bin_h();
  const double bin_area = bw * bh;
  const auto& region = db_.region();

  // Membership.
  for (std::size_t c = 0; c < n_movable_; ++c) {
    const int k = db_.cell_fence(c);
    systems_[k >= 0 ? k : num_fences].movable.push_back(static_cast<std::uint32_t>(c));
  }
  for (std::size_t c = n_physical_; c < n_total_; ++c) {
    const int k = db_.cell_fence(c);
    systems_[k >= 0 ? k : num_fences].fillers.push_back(static_cast<std::uint32_t>(c));
  }

  // Static blockage maps: complement of the allowed area at target density,
  // plus the fixed cells (already density-capped by the grid).
  std::vector<float> x_static(n_total_), y_static(n_total_);
  for (std::size_t c = 0; c < n_total_; ++c) {
    x_static[c] = static_cast<float>(db_.x(c));
    y_static[c] = static_cast<float>(db_.y(c));
  }
  for (int k = 0; k <= num_fences; ++k) {
    FenceSystem& sys = systems_[k];
    sys.blockage.assign(nbins, 0.0);
    sys.map.assign(nbins, 0.0);
    for (int bx = 0; bx < m; ++bx) {
      for (int by = 0; by < m; ++by) {
        const RectD bin{region.lx + bx * bw, region.ly + by * bh,
                        region.lx + (bx + 1) * bw, region.ly + (by + 1) * bh};
        double allowed;
        if (k < num_fences) {
          allowed = bin.overlap_area(db_.fences()[k].rect);
        } else {
          double fenced = 0.0;
          for (const db::FenceRegion& f : db_.fences()) {
            fenced += bin.overlap_area(f.rect);
          }
          allowed = bin_area - fenced;
        }
        sys.blockage[static_cast<std::size_t>(bx) * m + by] =
            (1.0 - allowed / bin_area) * db_.target_density();
      }
    }
    // Fixed cells block every system within its allowed area. Clamp each bin
    // at the target density: "fully blocked" is the ceiling — otherwise a
    // macro outside the fence would stack on top of the complement blockage
    // and register phantom overflow in every system.
    grid_.accumulate_range("density.fence_blockage_init", x_static.data(),
                           y_static.data(), n_movable_, n_physical_,
                           sys.blockage.data(), /*clear=*/false);
    for (double& b : sys.blockage) b = std::min(b, db_.target_density());
  }
}

void GradientEngine::wirelength_pass(const float* x, const float* y,
                                     float gamma, GradientResult& res,
                                     float* /*grad_x*/, float* /*grad_y*/) {
  XP_TRACE_SCOPE("gp.phase.wirelength");
  ScopedTimer phase_timer(phase_timers_, "gp.phase.wirelength");
  auto& disp = Dispatcher::global();
  // Zero the WL gradient accumulators. With operator reduction this is one
  // in-place fill; without it, a stock framework would allocate fresh zero
  // tensors (two launches).
  if (cfg_.op_reduction) {
    disp.run("wlgrad.zero_", [&] {
      std::fill(wl_grad_x_.begin(), wl_grad_x_.end(), 0.0f);
      std::fill(wl_grad_y_.begin(), wl_grad_y_.end(), 0.0f);
    });
  } else {
    disp.run("wlgrad.zeros_alloc", [&] {
      std::fill(wl_grad_x_.begin(), wl_grad_x_.end(), 0.0f);
    });
    disp.run("wlgrad.zeros_alloc", [&] {
      std::fill(wl_grad_y_.begin(), wl_grad_y_.end(), 0.0f);
    });
  }

  if (cfg_.op_reduction && cfg_.op_combination) {
    // Backend switch: same fat kernel (and launch name) either way; the pool
    // variant partitions nets across workers with slot-ordered reduction.
    ThreadPool* pool = pool_or_null();
    const ops::WirelengthSums sums =
        pool != nullptr
            ? ops::fused_wl_grad_hpwl_mt(view_, x, y, gamma, wl_grad_x_.data(),
                                         wl_grad_y_.data(), *pool)
            : ops::fused_wl_grad_hpwl(view_, x, y, gamma, wl_grad_x_.data(),
                                      wl_grad_y_.data());
    res.wa_wl = sums.wa;
    res.hpwl = sums.hpwl;
  } else if (cfg_.op_reduction) {
    // Separate kernels: each re-derives the per-net min/max (operator
    // combination OFF measures exactly this redundancy).
    res.wa_wl = ops::wa_wirelength(view_, x, y, gamma);
    ops::wa_gradient(view_, x, y, gamma, wl_grad_x_.data(), wl_grad_y_.data());
    res.hpwl = ops::hpwl(view_, x, y);
  } else {
    // Elementary-op forward + autograd backward (operator reduction OFF).
    res.wa_wl = tape_wl_->forward(tape_, x, y, gamma, wl_grad_x_.data(),
                                  wl_grad_y_.data());
    tape_.backward();
    res.hpwl = tape_wl_->hpwl_op(x, y);
  }
}

void GradientEngine::density_pass_fenced(const float* x, const float* y,
                                         GradientResult& res, double omega) {
  XP_TRACE_SCOPE("gp.phase.density");
  ScopedTimer phase_timer(phase_timers_, "gp.phase.density");
  auto& disp = Dispatcher::global();
  ThreadPool* pool = pool_or_null();
  disp.run("dgrad.zero_", [&] {
    std::fill(dgrad_x_.begin(), dgrad_x_.end(), 0.0f);
    std::fill(dgrad_y_.begin(), dgrad_y_.end(), 0.0f);
  });
  double over_area = 0.0;
  for (FenceSystem& sys : systems_) {
    // D_k = blockage + member movables; D̃_k = D_k + member fillers.
    disp.run("density.fence_copy_blockage_", [&] {
      std::copy(sys.blockage.begin(), sys.blockage.end(), sys.map.begin());
    });
    const auto scatter = [&](const char* opname,
                             const std::vector<std::uint32_t>& cells) {
      ScopedTimer scatter_timer(phase_timers_, "gp.phase.scatter");
      if (pool != nullptr) {
        ops::accumulate_cells_mt(grid_, opname, x, y, cells, sys.map.data(),
                                 /*clear=*/false, *pool);
      } else {
        grid_.accumulate_cells(opname, x, y, cells, sys.map.data(),
                               /*clear=*/false);
      }
    };
    scatter("density.fence_movable", sys.movable);
    over_area += grid_.overflow_area(sys.map.data());
    scatter("density.fence_filler", sys.fillers);
    solver_.solve(sys.map.data(), /*want_potential=*/!cfg_.op_reduction);
    std::vector<double>& ex = solver_.mutable_ex();
    std::vector<double>& ey = solver_.mutable_ey();
    if (guidance_ != nullptr) {
      const double r_prev =
          wl_grad_norm_cache_ > 0.0
              ? lambda_cache_ * density_grad_norm_cache_ / wl_grad_norm_cache_
              : 0.0;
      guidance_->blend(sys.map.data(), grid_.m(), grid_.bin_w(), grid_.bin_h(),
                       omega, r_prev, ex, ey);
    }
    if (pool != nullptr) {
      ops::gather_field_cells_mt(grid_, "dgrad.fence_gather_movable", x, y,
                                 sys.movable, ex.data(), ey.data(), -1.0f,
                                 dgrad_x_.data(), dgrad_y_.data(), *pool);
      ops::gather_field_cells_mt(grid_, "dgrad.fence_gather_filler", x, y,
                                 sys.fillers, ex.data(), ey.data(), -1.0f,
                                 dgrad_x_.data(), dgrad_y_.data(), *pool);
    } else {
      grid_.gather_field_cells("dgrad.fence_gather_movable", x, y, sys.movable,
                               ex.data(), ey.data(), -1.0f, dgrad_x_.data(),
                               dgrad_y_.data());
      grid_.gather_field_cells("dgrad.fence_gather_filler", x, y, sys.fillers,
                               ex.data(), ey.data(), -1.0f, dgrad_x_.data(),
                               dgrad_y_.data());
    }
  }
  res.overflow = db_.total_movable_area() > 0.0
                     ? over_area / db_.total_movable_area()
                     : 0.0;
}

void GradientEngine::density_pass(const float* x, const float* y,
                                  GradientResult& res, double omega) {
  if (!systems_.empty()) {
    density_pass_fenced(x, y, res, omega);
    return;
  }
  XP_TRACE_SCOPE("gp.phase.density");
  ScopedTimer phase_timer(phase_timers_, "gp.phase.density");
  auto& disp = Dispatcher::global();
  ThreadPool* pool = pool_or_null();
  const bool want_potential = !cfg_.op_reduction;

  const auto scatter = [&](const char* opname, std::size_t begin,
                           std::size_t end, double* map) {
    if (pool != nullptr) {
      ops::accumulate_range_mt(grid_, opname, x, y, begin, end, map, true,
                               *pool);
    } else {
      grid_.accumulate_range(opname, x, y, begin, end, map, true);
    }
  };
  {
    ScopedTimer scatter_timer(phase_timers_, "gp.phase.scatter");
    if (cfg_.op_extraction) {
      // D (movable + fixed) once; filler map separately; D̃ via one add
      // below; OVFL reuses D.
      scatter("density.map_physical", 0, n_physical_, dmap_.data());
      scatter("density.map_filler", n_physical_, n_total_, dmap_fl_.data());
    } else {
      // Joint accumulation for the electrostatic map AND a second scatter of
      // the physical cells for the overflow metric (the redundancy extraction
      // removes).
      scatter("density.map_joint", 0, n_total_, dmap_total_.data());
      scatter("density.map_overflow", 0, n_physical_, dmap_.data());
    }
  }
  if (cfg_.op_extraction) {
    disp.run("density.add_maps_", [&] {
      for (std::size_t b = 0; b < dmap_.size(); ++b)
        dmap_total_[b] = dmap_[b] + dmap_fl_[b];
    });
  }
  res.overflow = grid_.overflow(dmap_.data());

  {
    ScopedTimer fft_timer(phase_timers_, "gp.phase.fft");
    solver_.solve(dmap_total_.data(), want_potential);
  }
  if (want_potential) {
    // The loss the autograd formulation carries: U = ½Σρψ (one dispatched
    // f64 dot reduce through the SIMD table).
    disp.run("es.energy_reduce", [&] { (void)solver_.energy(dmap_total_.data()); });
  }

  std::vector<double>& ex = solver_.mutable_ex();
  std::vector<double>& ey = solver_.mutable_ey();
  if (guidance_ != nullptr) {
    const double r_prev =
        wl_grad_norm_cache_ > 0.0
            ? lambda_cache_ * density_grad_norm_cache_ / wl_grad_norm_cache_
            : 0.0;
    guidance_->blend(dmap_total_.data(), grid_.m(), grid_.bin_w(),
                     grid_.bin_h(), omega, r_prev, ex, ey);
  }

  disp.run("dgrad.zero_", [&] {
    std::fill(dgrad_x_.begin(), dgrad_x_.end(), 0.0f);
    std::fill(dgrad_y_.begin(), dgrad_y_.end(), 0.0f);
  });
  // Unweighted density gradient ∂U/∂x = −q·E; movable cells and fillers.
  XP_TRACE_SCOPE("gp.phase.field");
  ScopedTimer field_timer(phase_timers_, "gp.phase.field");
  if (pool != nullptr) {
    ops::gather_field_mt(grid_, "dgrad.gather_movable", x, y, 0, n_movable_,
                         ex.data(), ey.data(), -1.0f, dgrad_x_.data(),
                         dgrad_y_.data(), *pool);
    ops::gather_field_mt(grid_, "dgrad.gather_filler", x, y, n_physical_,
                         n_total_, ex.data(), ey.data(), -1.0f,
                         dgrad_x_.data(), dgrad_y_.data(), *pool);
  } else {
    grid_.gather_field("dgrad.gather_movable", x, y, 0, n_movable_, ex.data(),
                       ey.data(), -1.0f, dgrad_x_.data(), dgrad_y_.data());
    grid_.gather_field("dgrad.gather_filler", x, y, n_physical_, n_total_,
                       ex.data(), ey.data(), -1.0f, dgrad_x_.data(),
                       dgrad_y_.data());
  }
}

void GradientEngine::save_state(StateBlob& out) const {
  out.put_array("dgrad_x", dgrad_x_);
  out.put_array("dgrad_y", dgrad_y_);
  out.put_scalar("last_density_iter", static_cast<double>(last_density_iter_));
  out.put_scalar("wl_grad_norm_cache", wl_grad_norm_cache_);
  out.put_scalar("density_grad_norm_cache", density_grad_norm_cache_);
  out.put_scalar("overflow_cache", overflow_cache_);
  out.put_scalar("lambda_cache", lambda_cache_);
}

void GradientEngine::restore_state(const StateBlob& in) {
  dgrad_x_ = in.array("dgrad_x");
  dgrad_y_ = in.array("dgrad_y");
  if (dgrad_x_.size() != n_total_) {
    throw std::runtime_error("engine state has " +
                             std::to_string(dgrad_x_.size()) +
                             " cells, expected " + std::to_string(n_total_));
  }
  last_density_iter_ = static_cast<int>(in.scalar("last_density_iter"));
  wl_grad_norm_cache_ = in.scalar("wl_grad_norm_cache");
  density_grad_norm_cache_ = in.scalar("density_grad_norm_cache");
  overflow_cache_ = in.scalar("overflow_cache");
  lambda_cache_ = in.scalar("lambda_cache");
}

GradientResult GradientEngine::compute(const float* x, const float* y,
                                       float gamma, float lambda, int iter,
                                       double omega, float* grad_x,
                                       float* grad_y) {
  auto& disp = Dispatcher::global();
  GradientResult res;
  lambda_cache_ = lambda;

  if (cfg_.baseline_extra_ops) {
    // The baseline flow materializes pin positions and applies the net mask
    // as standalone tensor ops before the wirelength kernels, and issues
    // explicit metric syncs; these are real (if light) passes here too.
    disp.run("base.pin_pos_x", [&] {
      for (std::size_t p = 0; p < view_.num_pins; ++p)
        pin_scratch_[p] = x[view_.pin_cell[p]] + view_.pin_ox[p];
    });
    disp.run("base.pin_pos_y", [&] {
      for (std::size_t p = 0; p < view_.num_pins; ++p)
        pin_scratch_[p] = y[view_.pin_cell[p]] + view_.pin_oy[p];
    });
    disp.run("base.net_mask_apply", [&] {
      volatile float sink = 0.0f;
      for (std::size_t e = 0; e < view_.num_nets; ++e)
        sink = sink + view_.net_weight[e] * view_.net_mask[e];
    });
  }

  wirelength_pass(x, y, gamma, res, grad_x, grad_y);

  // Operator skipping (Section 3.1.4): in the early, wirelength-dominated
  // stage the density pipeline runs once every 20 iterations.
  bool run_density = true;
  if (cfg_.op_skipping && iter < 100 && last_density_iter_ >= 0) {
    // r from the cached norms of the last full evaluation.
    const double r = wl_grad_norm_cache_ > 0.0
                         ? lambda * density_grad_norm_cache_ / wl_grad_norm_cache_
                         : 1.0;
    if (r < 0.01 && iter - last_density_iter_ < 20) {
      run_density = false;
    }
  }

  if (run_density) {
    density_pass(x, y, res, omega);
    last_density_iter_ = iter;
  } else {
    res.density_skipped = true;
    res.overflow = overflow_cache_;
  }

  // Gradient norms over movable cells (two reduces, i.e. sync points).
  double wl_norm = 0.0, d_norm = 0.0;
  disp.run("reduce.wl_grad_norm", [&] {
    const simd::Kernels& k = simd::active();
    if (k.isa == simd::Isa::kScalar) {
      for (std::size_t c = 0; c < n_movable_; ++c)
        wl_norm += std::fabs(wl_grad_x_[c]) + std::fabs(wl_grad_y_[c]);
      return;
    }
    wl_norm = k.abs_sum(wl_grad_x_.data(), n_movable_) +
              k.abs_sum(wl_grad_y_.data(), n_movable_);
  });
  disp.run("reduce.density_grad_norm", [&] {
    const simd::Kernels& k = simd::active();
    if (k.isa == simd::Isa::kScalar) {
      for (std::size_t c = 0; c < n_movable_; ++c)
        d_norm += std::fabs(dgrad_x_[c]) + std::fabs(dgrad_y_[c]);
      return;
    }
    d_norm = k.abs_sum(dgrad_x_.data(), n_movable_) +
             k.abs_sum(dgrad_y_.data(), n_movable_);
  });
  res.wl_grad_norm = wl_norm;
  res.density_grad_norm = d_norm;
  res.r_ratio = wl_norm > 0.0 ? lambda * d_norm / wl_norm : 0.0;
  wl_grad_norm_cache_ = wl_norm;
  density_grad_norm_cache_ = d_norm;
  if (run_density) overflow_cache_ = res.overflow;

  // Combine: grad = ∇WL + λ·∇D (fillers have zero ∇WL).
  if (cfg_.op_reduction) {
    disp.run("grad.combine_", [&] {
      const simd::Kernels& k = simd::active();
      if (k.isa == simd::Isa::kScalar) {
        for (std::size_t c = 0; c < n_total_; ++c) {
          grad_x[c] = wl_grad_x_[c] + lambda * dgrad_x_[c];
          grad_y[c] = wl_grad_y_[c] + lambda * dgrad_y_[c];
        }
        return;
      }
      // copy + axpy performs the same mul-then-add rounding per element.
      k.copy(grad_x, wl_grad_x_.data(), n_total_);
      k.axpy_(grad_x, dgrad_x_.data(), lambda, n_total_);
      k.copy(grad_y, wl_grad_y_.data(), n_total_);
      k.axpy_(grad_y, dgrad_y_.data(), lambda, n_total_);
    });
  } else {
    // Out-of-place expression-graph style: scale then add, per axis.
    disp.run("grad.mul_lambda", [&] {
      simd::active().mul_scalar(dgrad_x_.data(), lambda, grad_x, n_total_);
    });
    disp.run("grad.add", [&] {
      simd::active().add_(grad_x, wl_grad_x_.data(), n_total_);
    });
    disp.run("grad.mul_lambda", [&] {
      simd::active().mul_scalar(dgrad_y_.data(), lambda, grad_y, n_total_);
    });
    disp.run("grad.add", [&] {
      simd::active().add_(grad_y, wl_grad_y_.data(), n_total_);
    });
  }

  if (cfg_.baseline_extra_ops) {
    disp.run("base.sync_metrics", [] {});
    disp.run("base.sync_stop_check", [] {});
  }
  return res;
}

}  // namespace xplace::core
