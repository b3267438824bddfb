#include "thermal/grid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace tac3d::thermal {

ThermalGrid::ThermalGrid(StackSpec spec, GridOptions opts)
    : spec_(std::move(spec)), opts_(opts) {
  spec_.validate();
  require(opts_.rows >= 2, "ThermalGrid: need at least 2 rows");
  require(opts_.cols >= 2, "ThermalGrid: need at least 2 cols");
  require(opts_.x_refine >= 1 && opts_.z_refine >= 1,
          "ThermalGrid: refinement factors must be >= 1");
  build_columns();
  build_layers();
  // Node indices are int32 (cell_node, the CSR patterns).
  require(static_cast<std::int64_t>(n_layers()) * opts_.rows * n_cols_ +
                  (spec_.sink.present ? 1 : 0) <=
              std::numeric_limits<std::int32_t>::max(),
          "ThermalGrid: too many cells for int32 node indices");
  map_elements();
}

void ThermalGrid::build_columns() {
  dy_.assign(opts_.rows, spec_.length / opts_.rows);

  // Common channel geometry across cavities (required in discrete mode).
  double wc = 0.0, pitch = 0.0;
  for (const Layer& l : spec_.layers) {
    if (l.kind != LayerKind::kCavity) continue;
    if (pitch == 0.0) {
      wc = l.channel_width;
      pitch = l.channel_pitch;
    } else {
      require(std::abs(l.channel_width - wc) < 1e-12 &&
                  std::abs(l.channel_pitch - pitch) < 1e-12,
              "ThermalGrid: all cavities must share channel geometry");
    }
  }

  if (opts_.discrete_channels) {
    require(pitch > 0.0,
            "ThermalGrid: discrete_channels requires at least one cavity");
    const int nch = static_cast<int>(spec_.width / pitch + 1e-9);
    require(nch >= 2, "ThermalGrid: chip too narrow for discrete channels");
    const double ww = pitch - wc;
    const double slack = spec_.width - nch * pitch;
    const double edge = ww / 2.0 + slack / 2.0;
    require(edge > 0.0, "ThermalGrid: negative edge wall width");

    // Base columns: edge wall, then (channel, wall)*(nch-1), channel,
    // edge wall.
    std::vector<std::pair<double, double>> base;  // {width, fraction}
    base.push_back({edge, 0.0});
    for (int i = 0; i < nch; ++i) {
      base.push_back({wc, 1.0});
      base.push_back({i + 1 < nch ? ww : edge, 0.0});
    }
    for (const auto& [w, frac] : base) {
      for (int k = 0; k < opts_.x_refine; ++k) {
        dx_.push_back(w / opts_.x_refine);
        channel_fraction_.push_back(frac);
      }
    }
    n_cols_ = static_cast<int>(dx_.size());
  } else {
    n_cols_ = opts_.cols;
    dx_.assign(n_cols_, spec_.width / n_cols_);
    const double frac = pitch > 0.0 ? wc / pitch : 0.0;
    channel_fraction_.assign(n_cols_, frac);
  }

  x_left_.assign(n_cols_, 0.0);
  for (int c = 1; c < n_cols_; ++c) x_left_[c] = x_left_[c - 1] + dx_[c - 1];

  // Flow shares: proportional to fluid cross-section per column.
  flow_share_.assign(n_cols_, 0.0);
  double total = 0.0;
  for (int c = 0; c < n_cols_; ++c) {
    flow_share_[c] = dx_[c] * channel_fraction_[c];
    total += flow_share_[c];
  }
  if (total > 0.0) {
    for (double& s : flow_share_) s /= total;
  }
}

void ThermalGrid::build_layers() {
  for (std::size_t i = 0; i < spec_.layers.size(); ++i) {
    const Layer& l = spec_.layers[i];
    if (l.kind == LayerKind::kCavity) {
      GridLayer gl;
      gl.spec_layer = static_cast<int>(i);
      gl.kind = LayerKind::kCavity;
      gl.thickness = l.thickness;
      gl.material = l.material;
      gl.cavity_id = l.cavity_id;
      gl.channel_width = l.channel_width;
      gl.channel_pitch = l.channel_pitch;
      gl.coolant = l.coolant;
      gl.name = l.name;
      layers_.push_back(std::move(gl));
    } else {
      for (int s = 0; s < opts_.z_refine; ++s) {
        GridLayer gl;
        gl.spec_layer = static_cast<int>(i);
        gl.kind = LayerKind::kSolid;
        gl.thickness = l.thickness / opts_.z_refine;
        gl.material = l.material;
        gl.name = l.name;
        // Power dissipates at the die's active surface: attach the
        // floorplan to the top sublayer.
        if (s == opts_.z_refine - 1) gl.floorplan_index = l.floorplan_index;
        layers_.push_back(std::move(gl));
      }
    }
  }
}

void ThermalGrid::map_elements() {
  for (int gl = 0; gl < n_layers(); ++gl) {
    const int fp_idx = layers_[gl].floorplan_index;
    if (fp_idx < 0) continue;
    const Floorplan& fp = spec_.floorplans[fp_idx];
    for (std::size_t e = 0; e < fp.size(); ++e) {
      ElementInfo info;
      info.name = fp[e].name;
      info.grid_layer = gl;
      info.floorplan = fp_idx;
      info.index_in_floorplan = static_cast<int>(e);
      info.rect = fp[e].rect;

      std::vector<CellWeight> cells;
      const double inv_area = 1.0 / info.rect.area();
      for (int r = 0; r < opts_.rows; ++r) {
        for (int c = 0; c < n_cols_; ++c) {
          const Rect cell{x_left_[c], r * dy_[r], dx_[c], dy_[r]};
          const double ov = info.rect.overlap_area(cell);
          if (ov > 0.0) {
            cells.push_back(CellWeight{cell_node(gl, r, c), ov * inv_area});
          }
        }
      }
      double sum = 0.0;
      for (const auto& cw : cells) sum += cw.weight;
      require(sum > 0.99,
              "ThermalGrid: element " + info.name +
                  " does not map onto the grid");
      // Renormalize away floating-point slack so power is conserved.
      for (auto& cw : cells) cw.weight /= sum;

      elements_.push_back(std::move(info));
      element_cells_.push_back(std::move(cells));
    }
  }
}

std::int32_t ThermalGrid::sink_node() const {
  if (!spec_.sink.present) return -1;
  return static_cast<std::int32_t>(static_cast<std::int64_t>(n_layers()) *
                                   opts_.rows * n_cols_);
}

std::int32_t ThermalGrid::node_count() const {
  const std::int64_t cells =
      static_cast<std::int64_t>(n_layers()) * opts_.rows * n_cols_;
  return static_cast<std::int32_t>(cells + (spec_.sink.present ? 1 : 0));
}

int ThermalGrid::element_id(const std::string& name) const {
  int found = -1;
  for (int e = 0; e < element_count(); ++e) {
    if (elements_[e].name == name) {
      require(found < 0, "ThermalGrid: ambiguous element name " + name);
      found = e;
    }
  }
  require(found >= 0, "ThermalGrid: no element named " + name);
  return found;
}

}  // namespace tac3d::thermal
