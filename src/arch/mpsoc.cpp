#include "arch/mpsoc.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace tac3d::arch {

Mpsoc3D::Mpsoc3D(Options opts)
    : chip_(std::move(opts.chip)),
      tiers_(opts.tiers),
      cooling_(opts.cooling) {
  model_ = std::make_unique<thermal::RcModel>(
      build_stack(chip_, tiers_, cooling_), opts.grid);
  const auto& grid = model_->grid();
  for (int i = 0; i < chip_.n_cores; ++i) {
    core_elements_.push_back(grid.element_id(core_name(i)));
  }
  for (int i = 0; i < chip_.n_l2_banks; ++i) {
    l2_elements_.push_back(grid.element_id(l2_name(i)));
  }
  const int instances = tiers_ == 2 ? 1 : 2;
  for (int i = 0; i < instances; ++i) {
    xbar_elements_.push_back(grid.element_id(crossbar_name(i)));
    misc_elements_.push_back(grid.element_id(misc_name(i)));
  }
}

Mpsoc3D::Mpsoc3D(const Mpsoc3D& other)
    : chip_(other.chip_),
      tiers_(other.tiers_),
      cooling_(other.cooling_),
      model_(std::make_unique<thermal::RcModel>(*other.model_)),
      core_elements_(other.core_elements_),
      l2_elements_(other.l2_elements_),
      xbar_elements_(other.xbar_elements_),
      misc_elements_(other.misc_elements_) {}

double Mpsoc3D::core_temp(std::span<const double> temps, int core) const {
  return model_->element_max(temps, core_elements_[core]);
}

double Mpsoc3D::max_core_temp(std::span<const double> temps) const {
  double best = -1e300;
  for (int i = 0; i < n_cores(); ++i) {
    best = std::max(best, core_temp(temps, i));
  }
  return best;
}

std::vector<double> Mpsoc3D::element_powers(
    std::span<const CoreState> cores, std::span<const double> temps) const {
  std::vector<double> p(model_->grid().element_count(), 0.0);
  element_powers_into(cores, temps, p);
  return p;
}

void Mpsoc3D::element_powers_into(std::span<const CoreState> cores,
                                  std::span<const double> temps,
                                  std::span<double> out) const {
  require(static_cast<int>(cores.size()) == n_cores(),
          "Mpsoc3D::element_powers: need one CoreState per core");
  const auto& grid = model_->grid();
  require(static_cast<int>(out.size()) == grid.element_count(),
          "Mpsoc3D::element_powers: output size mismatch");
  std::fill(out.begin(), out.end(), 0.0);

  double busy_sum = 0.0;
  for (int i = 0; i < n_cores(); ++i) {
    const CoreState& cs = cores[i];
    const double scale = chip_.vf.power_scale(cs.vf_level);
    const double dyn =
        (chip_.powers.core_idle +
         std::clamp(cs.busy, 0.0, 1.0) *
             (chip_.powers.core_active - chip_.powers.core_idle)) *
        scale;
    out[core_elements_[i]] = dyn;
    busy_sum += std::clamp(cs.busy, 0.0, 1.0);
  }
  const double mean_busy = busy_sum / n_cores();

  for (int b = 0; b < chip_.n_l2_banks; ++b) {
    out[l2_elements_[b]] =
        chip_.powers.l2_idle +
        mean_busy * (chip_.powers.l2_active - chip_.powers.l2_idle);
  }
  // Uncore traffic follows aggregate activity with a standby floor.
  for (int x : xbar_elements_) {
    out[x] = chip_.powers.crossbar / xbar_elements_.size() *
             (0.3 + 0.7 * mean_busy);
  }
  for (int m : misc_elements_) {
    out[m] = chip_.powers.misc / misc_elements_.size() *
             (0.3 + 0.7 * mean_busy);
  }

  // Leakage on every element, from the previous-step temperatures.
  for (int e = 0; e < grid.element_count(); ++e) {
    const double t = temps.empty()
                         ? chip_.leakage.reference_temperature()
                         : model_->element_avg(temps, e);
    out[e] += chip_.leakage.power(grid.element(e).rect.area(), t);
  }
}

double Mpsoc3D::chip_power(std::span<const CoreState> cores,
                           std::span<const double> temps) const {
  const auto p = element_powers(cores, temps);
  double sum = 0.0;
  for (double v : p) sum += v;
  return sum;
}

std::vector<double> Mpsoc3D::leakage_consistent_steady(
    std::span<const CoreState> cores, int iterations,
    std::shared_ptr<const sparse::SymbolicStructure> structure) {
  require(iterations >= 1, "leakage_consistent_steady: need >= 1 iteration");
  std::vector<double> temps(model_->node_count(),
                            model_->grid().spec().ambient);
  // Only the power changes between iterations, never G: one solver
  // (one factorization and schedule) serves every iteration.
  const auto solver =
      model_->steady_solver(sparse::SolverKind::kBicgstabIlu0,
                            std::move(structure));
  for (int i = 0; i < iterations; ++i) {
    model_->set_element_powers(element_powers(cores, temps));
    temps = model_->steady_state(*solver);
  }
  return temps;
}

}  // namespace tac3d::arch
