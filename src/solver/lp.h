// A small dense linear-program solver (two-phase primal simplex with
// Bland's rule). Lemur's Placer solves many tiny LPs — a handful of rate
// variables with SLO bounds and link-capacity rows — so an exact dense
// solver is the right tool; no external dependency is needed.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace lemur::solver {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// A maximization LP over continuous variables with box bounds and linear
/// inequality/equality constraints.
class LinearProgram {
 public:
  /// Adds a variable with the given objective coefficient and bounds;
  /// returns its index. Bounds: lower must be finite (>= -inf is not
  /// supported; Lemur's rates are naturally >= 0).
  int add_variable(double objective, double lower = 0.0,
                   double upper = kInfinity);

  using Terms = std::vector<std::pair<int, double>>;

  /// sum(coeff * var) <= rhs
  void add_le(Terms terms, double rhs);
  /// sum(coeff * var) >= rhs
  void add_ge(Terms terms, double rhs);
  /// sum(coeff * var) == rhs
  void add_eq(Terms terms, double rhs);

 private:
  friend class SimplexSolver;

  struct Variable {
    double objective = 0;
    double lower = 0;
    double upper = kInfinity;
  };

  enum class RowKind { kLe, kGe, kEq };

  struct Row {
    Terms terms;
    double rhs = 0;
    RowKind kind = RowKind::kLe;
  };

  std::vector<Variable> vars_;
  std::vector<Row> rows_;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0;
  std::vector<double> values;  ///< One entry per variable, in add order.

  [[nodiscard]] bool optimal() const { return status == LpStatus::kOptimal; }
};

/// Solves the program. Deterministic; suitable for programs with up to a
/// few hundred variables/constraints.
LpResult solve(const LinearProgram& lp);

}  // namespace lemur::solver
