#pragma once
/// \file mpsoc.hpp
/// \brief The assembled 3D MPSoC: thermal model + chip power model +
/// named sensors, the object the run-time policies operate on.

#include <memory>
#include <span>
#include <vector>

#include "arch/niagara.hpp"
#include "arch/stacks.hpp"
#include "thermal/rc_model.hpp"

namespace tac3d::arch {

/// Activity of one core as seen by the power model.
struct CoreState {
  double busy = 0.0;  ///< fraction of the interval the core executed
  int vf_level = 0;   ///< index into the chip's VfTable
};

/// A 2- or 4-tier UltraSPARC T1 3D MPSoC with its RC thermal model.
class Mpsoc3D {
 public:
  struct Options {
    int tiers = 2;
    CoolingKind cooling = CoolingKind::kLiquidCooled;
    thermal::GridOptions grid{16, 16};
    NiagaraConfig chip = NiagaraConfig::paper();
  };

  explicit Mpsoc3D(Options opts);

  /// Deep copy: clones the assembled RC model (matrix pattern, values,
  /// resolved advection indices) instead of re-running stack build and
  /// sparse assembly — the clone is bitwise identical to constructing
  /// from the same Options but far cheaper, which is what makes the
  /// model tier of a ScenarioBank (sim/bank.hpp) worthwhile.
  Mpsoc3D(const Mpsoc3D& other);
  Mpsoc3D& operator=(const Mpsoc3D&) = delete;
  Mpsoc3D(Mpsoc3D&&) noexcept = default;
  Mpsoc3D& operator=(Mpsoc3D&&) noexcept = default;

  const NiagaraConfig& chip() const { return chip_; }
  int tiers() const { return tiers_; }
  CoolingKind cooling() const { return cooling_; }
  thermal::RcModel& model() { return *model_; }
  const thermal::RcModel& model() const { return *model_; }

  int n_cores() const { return chip_.n_cores; }
  int core_element(int core) const { return core_elements_[core]; }
  int l2_element(int bank) const { return l2_elements_[bank]; }

  /// Maximum cell temperature of core \p core [K].
  double core_temp(std::span<const double> temps, int core) const;

  /// Hottest core temperature [K].
  double max_core_temp(std::span<const double> temps) const;

  /// Element power vector [W] for the given core activity and the
  /// temperature field of the *previous* step (explicit leakage
  /// coupling). L2/crossbar/misc activity follows the mean core busy
  /// fraction; uncore blocks stay at the nominal VF point.
  std::vector<double> element_powers(std::span<const CoreState> cores,
                                     std::span<const double> temps) const;

  /// Allocation-free element_powers into a caller-owned vector (size
  /// grid().element_count()): dynamic power then leakage, identical FP
  /// chain to element_powers(). Used by the per-step control tail. An
  /// empty \p temps evaluates leakage at its reference temperature.
  void element_powers_into(std::span<const CoreState> cores,
                           std::span<const double> temps,
                           std::span<double> out) const;

  /// Total chip power [W] for the same inputs (sum of element_powers).
  double chip_power(std::span<const CoreState> cores,
                    std::span<const double> temps) const;

  /// Leakage-consistent steady state: iterate power(T) -> steady(T)
  /// to a fixed point (leakage depends on temperature). Sets the
  /// model's element powers as a side effect and returns the
  /// temperature field. A non-null \p structure supplies the symbolic
  /// analysis of the conductance pattern (see sparse/symbolic.hpp).
  std::vector<double> leakage_consistent_steady(
      std::span<const CoreState> cores, int iterations = 4,
      std::shared_ptr<const sparse::SymbolicStructure> structure = nullptr);

 private:
  NiagaraConfig chip_;
  int tiers_;
  CoolingKind cooling_;
  std::unique_ptr<thermal::RcModel> model_;
  std::vector<int> core_elements_;
  std::vector<int> l2_elements_;
  std::vector<int> xbar_elements_;
  std::vector<int> misc_elements_;
};

}  // namespace tac3d::arch
