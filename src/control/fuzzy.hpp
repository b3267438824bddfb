#pragma once
/// \file fuzzy.hpp
/// \brief Generic Mamdani fuzzy-inference engine (triangular/trapezoid
/// membership, min-AND, max aggregation, centroid defuzzification).
///
/// The LC_FUZZY run-time controller of the paper (from the authors'
/// ICCAD'10 work) is built on this engine; it is generic so tests can
/// exercise it independently of the thermal policy.

#include <span>
#include <string>
#include <vector>

namespace tac3d::control {

/// Membership function on a real domain, returning a grade in [0, 1].
///
/// Stored as shape parameters and evaluated inline (it used to wrap a
/// std::function closure, which put an indirect call inside the centroid
/// sampling loop — the single hottest spot of every LC_FUZZY control
/// step). The arithmetic is expression-for-expression what the closures
/// computed, so results are bitwise unchanged.
class MembershipFunction {
 public:
  /// Triangle with feet at \p a and \p c and apex at \p b.
  static MembershipFunction triangular(double a, double b, double c);

  /// Trapezoid with feet a/d and plateau b..c. Degenerate edges
  /// (a == b or c == d) become crisp shoulders.
  static MembershipFunction trapezoid(double a, double b, double c, double d);

  double operator()(double x) const {
    if (kind_ == Kind::kTriangle) {
      if (x <= a_ || x >= c_) return (x == b_) ? 1.0 : 0.0;
      if (x == b_) return 1.0;
      return x < b_ ? (x - a_) / (b_ - a_) : (c_ - x) / (c_ - b_);
    }
    if (x < a_ || x > d_) return 0.0;
    if (x >= b_ && x <= c_) return 1.0;
    if (x < b_) return b_ == a_ ? 1.0 : (x - a_) / (b_ - a_);
    return d_ == c_ ? 1.0 : (d_ - x) / (d_ - c_);
  }

 private:
  enum class Kind { kTriangle, kTrapezoid };

  MembershipFunction(Kind kind, double a, double b, double c, double d)
      : kind_(kind), a_(a), b_(b), c_(c), d_(d) {}

  Kind kind_;
  double a_, b_, c_, d_;
};

/// A named fuzzy set over a variable's domain.
struct FuzzySet {
  std::string name;
  MembershipFunction mf;
};

/// A linguistic variable: a domain plus its fuzzy sets.
class LinguisticVariable {
 public:
  LinguisticVariable(std::string name, double lo, double hi);

  const std::string& name() const { return name_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  /// Add a set; returns its index.
  int add_set(std::string set_name, MembershipFunction mf);

  int set_count() const { return static_cast<int>(sets_.size()); }
  const FuzzySet& set(int i) const { return sets_[i]; }

  /// Index of the set named \p set_name (throws if absent).
  int set_index(const std::string& set_name) const;

  /// Membership grade of \p x in set \p i (x clamped to the domain).
  double membership(int i, double x) const;

 private:
  std::string name_;
  double lo_;
  double hi_;
  std::vector<FuzzySet> sets_;
};

/// One IF-AND rule: antecedents (input index, set index) -> output set.
struct FuzzyRule {
  std::vector<std::pair<int, int>> antecedents;
  int output_set = 0;
  double weight = 1.0;
};

/// Single-output Mamdani controller.
class FuzzyController {
 public:
  /// Register an input variable; returns its index.
  int add_input(LinguisticVariable var);

  /// Set the output variable.
  void set_output(LinguisticVariable var);

  /// Add a rule (by set indices).
  void add_rule(FuzzyRule rule);

  /// Convenience: add a rule by names,
  /// e.g. add_rule({{"temp","hot"},{"util","low"}}, "increase").
  void add_rule(
      const std::vector<std::pair<std::string, std::string>>& antecedents,
      const std::string& output_set, double weight = 1.0);

  int input_count() const { return static_cast<int>(inputs_.size()); }
  int rule_count() const { return static_cast<int>(rules_.size()); }

  /// Mamdani inference: min-AND activation, max aggregation of clipped
  /// output sets, centroid defuzzification (\p resolution samples).
  /// Returns the domain midpoint if no rule fires. Allocation-free
  /// after the first call (rule-activation workspace is persistent).
  double evaluate(std::span<const double> inputs, int resolution = 101) const;

  /// Convenience overload for brace-initialized inputs (tests).
  double evaluate(const std::vector<double>& inputs,
                  int resolution = 101) const {
    return evaluate(std::span<const double>(inputs), resolution);
  }

 private:
  std::vector<LinguisticVariable> inputs_;
  std::vector<LinguisticVariable> output_;
  std::vector<FuzzyRule> rules_;
  // Persistent inference workspace (sized on first use, reused after).
  mutable std::vector<double> activation_;  ///< set_count
};

}  // namespace tac3d::control
