#include "thermal/operator.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tac3d::thermal {

ThermalOperator::ThermalOperator(const RcModel& model, double dt)
    : model_(&model), dt_(dt) {
  require(dt > 0.0, "ThermalOperator: dt must be positive");
  const std::int32_t n = model.node_count();

  // Constant part: static conduction plus C/dt on the diagonal. The
  // pattern is copied from the assembled conductance, so the advection
  // value indices of the model's AdvectionEntry lists address a_'s
  // values array directly.
  a_ = model.conductance();
  const std::span<const double> s = model.static_conductance().values();
  base_values_.assign(s.begin(), s.end());
  const std::span<const double> c = model.capacitance();
  for (std::int32_t i = 0; i < n; ++i) {
    const std::int64_t d = a_.entry_index(i, i);
    require(d >= 0, "ThermalOperator: missing diagonal entry");
    base_values_[d] += c[i] / dt_;
  }

  // Apply the current flows on top of the constant part through the
  // regular update path (one advection-composition loop to maintain):
  // every cavity is seeded stale so update_flow() rewrites it.
  std::copy(base_values_.begin(), base_values_.end(),
            a_.values_mut().begin());
  std::size_t max_dirty_rows = 0;
  for (int cav = 0; cav < model_->n_cavities(); ++cav) {
    max_dirty_rows += model_->advection_entries(cav).size();
  }
  dirty_rows_.reserve(max_dirty_rows);
  applied_state_.assign(model_->n_cavities(),
                        ~std::uint64_t{0});  // != any real state counter
  update_flow();
  flow_updates_ = 0;  // construction is not a flow update
  last_dirty_fraction_ = 0.0;
}

bool ThermalOperator::in_sync() const {
  for (int cav = 0; cav < model_->n_cavities(); ++cav) {
    if (applied_state_[cav] != model_->cavity_flow_state(cav)) return false;
  }
  return true;
}

sparse::ValueUpdate ThermalOperator::update_flow() {
  dirty_rows_.clear();  // capacity reserved at construction; no alloc
  std::int64_t dirty_entries = 0;
  const std::span<double> v = a_.values_mut();
  for (int cav = 0; cav < model_->n_cavities(); ++cav) {
    const std::uint64_t state = model_->cavity_flow_state(cav);
    if (applied_state_[cav] == state) continue;
    const double q = model_->cavity_flow(cav);
    for (const AdvectionEntry& e : model_->advection_entries(cav)) {
      const double a = e.unit * q;
      v[e.diag_vidx] = base_values_[e.diag_vidx] + a;
      ++dirty_entries;
      if (e.upstream_vidx >= 0) {
        v[e.upstream_vidx] = base_values_[e.upstream_vidx] - a;
        ++dirty_entries;
      }
      dirty_rows_.push_back(e.node);  // one entry per node: no duplicates
    }
    applied_state_[cav] = state;
  }
  sparse::ValueUpdate update;
  update.rows = dirty_rows_;
  update.dirty_fraction =
      a_.nnz() > 0 ? static_cast<double>(dirty_entries) /
                         static_cast<double>(a_.nnz())
                   : 0.0;
  last_dirty_fraction_ = update.dirty_fraction;
  if (dirty_entries > 0) ++flow_updates_;
  return update;
}

}  // namespace tac3d::thermal
