#include "control/fuzzy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tac3d::control {

MembershipFunction MembershipFunction::triangular(double a, double b,
                                                  double c) {
  require(a <= b && b <= c && a < c,
          "MembershipFunction::triangular: need a <= b <= c, a < c");
  return MembershipFunction(Kind::kTriangle, a, b, c, c);
}

MembershipFunction MembershipFunction::trapezoid(double a, double b, double c,
                                                 double d) {
  require(a <= b && b <= c && c <= d && a < d,
          "MembershipFunction::trapezoid: need a <= b <= c <= d, a < d");
  return MembershipFunction(Kind::kTrapezoid, a, b, c, d);
}

LinguisticVariable::LinguisticVariable(std::string name, double lo, double hi)
    : name_(std::move(name)), lo_(lo), hi_(hi) {
  require(hi > lo, "LinguisticVariable: domain must be non-empty");
}

int LinguisticVariable::add_set(std::string set_name, MembershipFunction mf) {
  sets_.push_back(FuzzySet{std::move(set_name), std::move(mf)});
  return set_count() - 1;
}

int LinguisticVariable::set_index(const std::string& set_name) const {
  for (int i = 0; i < set_count(); ++i) {
    if (sets_[i].name == set_name) return i;
  }
  throw InvalidArgument("LinguisticVariable " + name_ + ": no set named " +
                        set_name);
}

double LinguisticVariable::membership(int i, double x) const {
  require(i >= 0 && i < set_count(),
          "LinguisticVariable::membership: set index out of range");
  return sets_[i].mf(std::clamp(x, lo_, hi_));
}

int FuzzyController::add_input(LinguisticVariable var) {
  inputs_.push_back(std::move(var));
  return input_count() - 1;
}

void FuzzyController::set_output(LinguisticVariable var) {
  output_.clear();
  output_.push_back(std::move(var));
}

void FuzzyController::add_rule(FuzzyRule rule) {
  require(!output_.empty(), "FuzzyController: set_output before add_rule");
  require(rule.output_set >= 0 && rule.output_set < output_[0].set_count(),
          "FuzzyController: rule output set out of range");
  for (const auto& [var, set] : rule.antecedents) {
    require(var >= 0 && var < input_count(),
            "FuzzyController: rule references unknown input");
    require(set >= 0 && set < inputs_[var].set_count(),
            "FuzzyController: rule references unknown input set");
  }
  rules_.push_back(std::move(rule));
}

void FuzzyController::add_rule(
    const std::vector<std::pair<std::string, std::string>>& antecedents,
    const std::string& output_set, double weight) {
  FuzzyRule rule;
  for (const auto& [var_name, set_name] : antecedents) {
    int var = -1;
    for (int i = 0; i < input_count(); ++i) {
      if (inputs_[i].name() == var_name) var = i;
    }
    require(var >= 0, "FuzzyController: no input named " + var_name);
    rule.antecedents.push_back({var, inputs_[var].set_index(set_name)});
  }
  require(!output_.empty(), "FuzzyController: set_output before add_rule");
  rule.output_set = output_[0].set_index(output_set);
  rule.weight = weight;
  add_rule(std::move(rule));
}

double FuzzyController::evaluate(std::span<const double> inputs,
                                 int resolution) const {
  require(!output_.empty(), "FuzzyController: no output variable");
  require(static_cast<int>(inputs.size()) == input_count(),
          "FuzzyController::evaluate: input size mismatch");
  require(resolution >= 3, "FuzzyController::evaluate: resolution too low");

  // Rule activations: min over antecedents, scaled by weight.
  std::vector<double>& activation = activation_;
  activation.assign(output_[0].set_count(), 0.0);
  for (const FuzzyRule& rule : rules_) {
    double a = 1.0;
    for (const auto& [var, set] : rule.antecedents) {
      a = std::min(a, inputs_[var].membership(set, inputs[var]));
    }
    a *= rule.weight;
    activation[rule.output_set] =
        std::max(activation[rule.output_set], a);
  }

  // Centroid of the max-aggregated clipped output sets.
  const LinguisticVariable& out = output_[0];
  const double lo = out.lo();
  const double hi = out.hi();
  double num = 0.0, den = 0.0;
  for (int s = 0; s < resolution; ++s) {
    const double x = lo + (hi - lo) * s / (resolution - 1);
    double mu = 0.0;
    for (int i = 0; i < out.set_count(); ++i) {
      mu = std::max(mu, std::min(activation[i], out.membership(i, x)));
    }
    num += mu * x;
    den += mu;
  }
  return den > 0.0 ? num / den : 0.5 * (lo + hi);
}

}  // namespace tac3d::control
