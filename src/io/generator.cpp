#include "io/generator.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <vector>

#include "io/bookshelf.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/rng.h"

namespace xplace::io {
namespace {

/// Draw a net degree: 2/3/4-pin nets dominate; geometric tail up to 24 pins,
/// with a rare "global" net up to 64. Tuned so the mean lands near
/// spec.avg_net_degree for the default mix.
std::size_t draw_degree(Rng& rng, double avg) {
  const double u = rng.uniform();
  // Base mix averaging ~3.0: 2:55%, 3:22%, 4:10%, tail: 13%.
  std::size_t deg;
  if (u < 0.55) {
    deg = 2;
  } else if (u < 0.77) {
    deg = 3;
  } else if (u < 0.87) {
    deg = 4;
  } else {
    // Geometric tail starting at 5.
    deg = 5;
    while (deg < 24 && rng.bernoulli(0.72)) ++deg;
    if (rng.bernoulli(0.004)) deg += rng.uniform_int(16, 48);  // rare global net
  }
  // Stretch the tail to hit the requested average (base mix averages ~3.2).
  if (avg > 3.2 && deg >= 3 && rng.bernoulli(std::min(0.9, (avg - 3.2) / 4.0))) {
    ++deg;
  }
  return deg;
}

}  // namespace

db::Database generate(const GeneratorSpec& spec) {
  Rng rng(spec.seed ^ 0xC0FFEEULL);
  db::Database db;
  db.set_design_name(spec.name);
  db.set_target_density(spec.target_density);

  // ---- movable cells ------------------------------------------------------
  // Widths: 2..14 sites, biased small (like contest standard-cell libraries).
  std::vector<int> ids(spec.num_cells);
  double movable_area = 0.0;
  for (std::size_t i = 0; i < spec.num_cells; ++i) {
    const double wsites = 2.0 + std::floor(std::pow(rng.uniform(), 1.7) * 13.0);
    const double w = wsites * spec.site_width;
    ids[i] = db.add_cell("o" + std::to_string(i), w, spec.row_height,
                         db::CellKind::kMovable);
    movable_area += w * spec.row_height;
  }

  // ---- die sizing ---------------------------------------------------------
  // free_area = movable / utilization; region = free + macro area, square,
  // snapped to an integer number of rows.
  const double free_area = movable_area / std::max(0.05, spec.utilization);
  const double region_area = free_area / std::max(1e-9, 1.0 - spec.macro_area_fraction);
  double side = std::sqrt(region_area);
  const int num_rows = std::max(4, static_cast<int>(std::lround(side / spec.row_height)));
  const double height = num_rows * spec.row_height;
  const double width_raw = region_area / height;
  const int num_sites = std::max(16, static_cast<int>(std::lround(width_raw / spec.site_width)));
  const double width = num_sites * spec.site_width;
  const RectD region{0.0, 0.0, width, height};
  db.set_region(region);
  for (int r = 0; r < num_rows; ++r) {
    db::Row row;
    row.lx = 0.0;
    row.ly = r * spec.row_height;
    row.height = spec.row_height;
    row.site_width = spec.site_width;
    row.num_sites = num_sites;
    db.add_row(row);
  }

  // ---- fixed macros + fence rectangles ------------------------------------
  // Macros and fences are placed on a shared jittered grid so nothing
  // overlaps (contest macro/fence layouts are non-overlapping).
  const double macro_area_total = region_area * spec.macro_area_fraction;
  std::vector<RectD> macro_rects;
  std::vector<RectD> fence_rects;
  if (spec.num_macros + spec.num_fences > 0 && region_area > 0.0) {
    const int grid = static_cast<int>(std::ceil(
        std::sqrt(static_cast<double>(spec.num_macros + spec.num_fences))));
    const double cell_w = width / grid, cell_h = height / grid;
    const double one_area =
        spec.num_macros > 0 ? macro_area_total / spec.num_macros : 0.0;
    std::vector<int> slots(static_cast<std::size_t>(grid) * grid);
    std::iota(slots.begin(), slots.end(), 0);
    // Deterministic shuffle of grid slots.
    for (std::size_t i = slots.size(); i > 1; --i) {
      std::swap(slots[i - 1], slots[rng.uniform_index(i)]);
    }
    for (int m = 0; m < spec.num_macros; ++m) {
      const int slot = slots[static_cast<std::size_t>(m) % slots.size()];
      const int gx = slot % grid, gy = slot / grid;
      const double aspect = rng.uniform(0.6, 1.7);
      double mw = std::sqrt(one_area * aspect);
      double mh = one_area / mw;
      mw = std::min(mw, cell_w * 0.85);
      mh = std::min(mh, cell_h * 0.85);
      // Snap height to rows so legalization sees clean blockage boundaries.
      mh = std::max(spec.row_height, std::floor(mh / spec.row_height) * spec.row_height);
      const double lx = gx * cell_w + rng.uniform(0.0, std::max(0.0, cell_w - mw));
      const double ly_raw = gy * cell_h + rng.uniform(0.0, std::max(0.0, cell_h - mh));
      const double ly = std::min(height - mh,
                                 std::round(ly_raw / spec.row_height) * spec.row_height);
      const int id = db.add_cell("macro" + std::to_string(m), mw, mh,
                                 db::CellKind::kFixed);
      db.set_initial_position(id, lx + mw * 0.5, ly + mh * 0.5);
      macro_rects.push_back(RectD{lx, ly, lx + mw, ly + mh});
      ids.push_back(id);
    }
    // Fence rectangles in the remaining grid slots, row-aligned in y.
    const double fence_area_each =
        spec.num_fences > 0
            ? region_area * spec.fence_area_fraction / spec.num_fences
            : 0.0;
    for (int f = 0; f < spec.num_fences; ++f) {
      const int slot = slots[static_cast<std::size_t>(spec.num_macros + f) % slots.size()];
      const int gx = slot % grid, gy = slot / grid;
      double fw = std::sqrt(fence_area_each * rng.uniform(0.8, 1.3));
      double fh = fence_area_each / fw;
      fw = std::min(fw, cell_w * 0.9);
      fh = std::min(fh, cell_h * 0.9);
      // Rows must lie fully inside the fence's vertical span.
      fh = std::max(2.0 * spec.row_height,
                    std::floor(fh / spec.row_height) * spec.row_height);
      const double flx = gx * cell_w + rng.uniform(0.0, std::max(0.0, cell_w - fw));
      double fly = gy * cell_h + rng.uniform(0.0, std::max(0.0, cell_h - fh));
      fly = std::min(height - fh,
                     std::round(fly / spec.row_height) * spec.row_height);
      const RectD rect{flx, fly, flx + fw, fly + fh};
      db.add_fence_region("fence" + std::to_string(f), rect);
      fence_rects.push_back(rect);
    }
  }
  const std::size_t num_macros_made = macro_rects.size();

  // ---- IO pads ------------------------------------------------------------
  // Small fixed terminals on the die boundary (bookshelf contest designs pin
  // their IOs on the periphery).
  std::vector<int> pad_ids;
  for (int p = 0; p < spec.num_io_pads; ++p) {
    const int id = db.add_cell("pad" + std::to_string(p), 1.0, 1.0,
                               db::CellKind::kFixed);
    const double t = (p + 0.5) / std::max(1, spec.num_io_pads);
    const double perim = 2.0 * (width + height);
    double d = t * perim;
    double px, py;
    if (d < width) {
      px = d;
      py = 0.0;
    } else if (d < width + height) {
      px = width;
      py = d - width;
    } else if (d < 2 * width + height) {
      px = 2 * width + height - d;
      py = height;
    } else {
      px = 0.0;
      py = perim - d;
    }
    db.set_initial_position(id, px, py);
    pad_ids.push_back(id);
  }

  // ---- netlist ------------------------------------------------------------
  // Cluster order: cells are conceptually laid out along a recursive-bisection
  // order; a net anchors at a random cell and draws its other pins from a
  // power-law window around the anchor, giving Rent-style locality.
  std::vector<std::uint32_t> cluster_order(spec.num_cells);
  std::iota(cluster_order.begin(), cluster_order.end(), 0u);
  for (std::size_t i = cluster_order.size(); i > 1; --i) {
    // Mild shuffle: swap within a +-num_cells/64 neighborhood to keep global
    // structure but avoid index == cluster artifacts.
    const std::size_t window = std::max<std::size_t>(2, spec.num_cells / 64);
    const std::size_t j = (i - 1 + rng.uniform_index(window)) % cluster_order.size();
    std::swap(cluster_order[i - 1], cluster_order[j]);
  }

  // ---- fence membership ----------------------------------------------------
  // Cluster-contiguous ranges of cells are assigned per fence (capacity-
  // capped so the fence can hold its members at ~60% fill).
  if (!fence_rects.empty()) {
    const double avg_cell_area = movable_area / static_cast<double>(spec.num_cells);
    const std::size_t per_fence_target = static_cast<std::size_t>(
        spec.fenced_cell_fraction * static_cast<double>(spec.num_cells) /
        fence_rects.size());
    for (std::size_t f = 0; f < fence_rects.size(); ++f) {
      const double capacity =
          0.6 * fence_rects[f].area() * spec.target_density / avg_cell_area;
      const std::size_t count = std::min(
          per_fence_target, static_cast<std::size_t>(std::max(0.0, capacity)));
      const std::size_t start = f * spec.num_cells / fence_rects.size();
      for (std::size_t i = 0; i < count && start + i < spec.num_cells; ++i) {
        db.assign_to_fence(ids[cluster_order[start + i]], static_cast<int>(f));
      }
    }
  }

  auto pin_offset = [&](int cell_id, double& ox, double& oy) {
    // Pins sit inside the cell outline.
    const double w = db.width(cell_id), h = db.height(cell_id);
    ox = rng.uniform(-0.4, 0.4) * w;
    oy = rng.uniform(-0.4, 0.4) * h;
  };

  double total_pins = 0.0;
  std::vector<int> net_cells;
  for (std::size_t e = 0; e < spec.num_nets; ++e) {
    const std::size_t degree = draw_degree(rng, spec.avg_net_degree);
    const std::size_t anchor_pos = rng.uniform_index(spec.num_cells);
    // Window size: power-law between 8 and num_cells.
    const double umin = std::log(8.0);
    const double umax = std::log(static_cast<double>(std::max<std::size_t>(16, spec.num_cells)));
    const std::size_t window = static_cast<std::size_t>(
        std::exp(rng.uniform(umin, umax)));

    net_cells.clear();
    net_cells.push_back(ids[cluster_order[anchor_pos]]);
    std::size_t attempts = 0;
    while (net_cells.size() < degree && attempts < degree * 8) {
      ++attempts;
      std::size_t pos;
      if (rng.bernoulli(0.03) && num_macros_made + pad_ids.size() > 0) {
        // Occasionally connect to a macro or pad (clock/reset style nets).
        if (!pad_ids.empty() && rng.bernoulli(0.5)) {
          net_cells.push_back(pad_ids[rng.uniform_index(pad_ids.size())]);
          continue;
        }
        if (num_macros_made > 0) {
          net_cells.push_back(ids[spec.num_cells + rng.uniform_index(num_macros_made)]);
          continue;
        }
        continue;
      }
      const long off = static_cast<long>(rng.uniform_index(2 * window + 1)) -
                       static_cast<long>(window);
      const long raw = static_cast<long>(anchor_pos) + off;
      if (raw < 0 || raw >= static_cast<long>(spec.num_cells)) continue;
      pos = static_cast<std::size_t>(raw);
      const int cand = ids[cluster_order[pos]];
      if (std::find(net_cells.begin(), net_cells.end(), cand) != net_cells.end()) continue;
      net_cells.push_back(cand);
    }
    if (net_cells.size() < 2) {
      // Degenerate draw: connect anchor to a uniformly random second cell.
      int cand = ids[cluster_order[rng.uniform_index(spec.num_cells)]];
      if (cand == net_cells[0]) cand = ids[cluster_order[(anchor_pos + 1) % spec.num_cells]];
      net_cells.push_back(cand);
    }
    const int net = db.add_net("n" + std::to_string(e));
    for (int cell : net_cells) {
      double ox, oy;
      pin_offset(cell, ox, oy);
      db.add_pin(net, cell, ox, oy);
    }
    total_pins += static_cast<double>(net_cells.size());
  }

  // ---- initial positions --------------------------------------------------
  // Scatter movable cells uniformly over the die, avoiding macro interiors
  // (a rough contest-like initial .pl).
  for (std::size_t i = 0; i < spec.num_cells; ++i) {
    const int id = ids[i];
    const double hw = db.width(id) * 0.5, hh = db.height(id) * 0.5;
    const int fence = db.cell_fence(id);
    if (fence >= 0) {
      const RectD& fr = fence_rects[fence];
      db.set_initial_position(id, rng.uniform(fr.lx + hw, fr.hx - hw),
                              rng.uniform(fr.ly + hh, fr.hy - hh));
      continue;
    }
    for (int tries = 0; tries < 8; ++tries) {
      const double cx = rng.uniform(region.lx + hw, region.hx - hw);
      const double cy = rng.uniform(region.ly + hh, region.hy - hh);
      bool inside_macro = false;
      for (const RectD& m : macro_rects) {
        if (m.contains(cx, cy)) {
          inside_macro = true;
          break;
        }
      }
      db.set_initial_position(id, cx, cy);
      if (!inside_macro) break;
    }
  }

  db.finalize();
  XP_INFO("generated '%s': %zu cells, %zu nets, %.0f pins (avg deg %.2f), die %.0fx%.0f",
          spec.name.c_str(), db.num_movable(), db.num_nets(), total_pins,
          total_pins / std::max<std::size_t>(1, spec.num_nets), width, height);
  return db;
}

std::uint64_t demo_content_hash(std::size_t cells, std::uint64_t seed) {
  // Tagged key so demo hashes live in a different space than file-byte
  // hashes ("demo" prefix + the two little-endian u64 generator inputs).
  util::ByteWriter key;
  key.append("demo");
  key(static_cast<std::uint64_t>(cells), seed);
  return util::fnv1a64(key.str().data(), key.str().size());
}

std::shared_ptr<const db::DesignSnapshot> make_demo_snapshot(std::size_t cells,
                                                             std::uint64_t seed) {
  namespace fs = std::filesystem;
  // Scratch path must be unique per process AND per call: concurrent loads
  // (or two servers in one test binary) must not write and delete each
  // other's bookshelf scratch files mid-parse.
  static std::atomic<std::uint64_t> scratch_seq{0};
  const fs::path dir =
      fs::temp_directory_path() /
      ("xplace_demo_" + std::to_string(::getpid()) + "_" +
       std::to_string(scratch_seq.fetch_add(1)));
  fs::create_directories(dir);
  GeneratorSpec gen;
  gen.name = "demo";
  gen.num_cells = cells;
  gen.num_nets = gen.num_cells + gen.num_cells / 20;
  gen.seed = seed;
  const db::Database generated = generate(gen);
  write_bookshelf(generated, dir.string(), "demo");
  auto snap = std::make_shared<db::DesignSnapshot>();
  snap->content_hash = demo_content_hash(cells, seed);
  snap->source = "demo:" + std::to_string(cells) + ":" + std::to_string(seed);
  snap->base = read_bookshelf_aux((dir / "demo.aux").string());
  snap->resident_bytes = snap->base.core_resident_bytes();
  std::error_code ec;
  fs::remove_all(dir, ec);  // scratch files; ignore cleanup failures
  return snap;
}

}  // namespace xplace::io
