#include "src/solver/lp.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lemur::solver {
namespace {

constexpr double kEps = 1e-9;

}  // namespace

int LinearProgram::add_variable(double objective, double lower,
                                double upper) {
  assert(std::isfinite(lower));
  assert(upper >= lower);
  vars_.push_back(Variable{objective, lower, upper});
  return static_cast<int>(vars_.size()) - 1;
}

void LinearProgram::add_le(Terms terms, double rhs) {
  rows_.push_back(Row{std::move(terms), rhs, RowKind::kLe});
}

void LinearProgram::add_ge(Terms terms, double rhs) {
  rows_.push_back(Row{std::move(terms), rhs, RowKind::kGe});
}

void LinearProgram::add_eq(Terms terms, double rhs) {
  rows_.push_back(Row{std::move(terms), rhs, RowKind::kEq});
}

/// Two-phase primal simplex over a dense tableau. Operates on the
/// shifted program (variables moved to y = x - lower >= 0, finite upper
/// bounds turned into extra <= rows).
class SimplexSolver {
 public:
  explicit SimplexSolver(const LinearProgram& lp) : lp_(lp) {}

  LpResult run() {
    build_shifted_rows();
    build_tableau();
    if (!phase_one()) {
      return LpResult{LpStatus::kInfeasible, 0, {}};
    }
    const LpStatus status = phase_two();
    if (status == LpStatus::kUnbounded) {
      return LpResult{LpStatus::kUnbounded, 0, {}};
    }
    return extract_result();
  }

 private:
  struct ShiftedRow {
    std::vector<double> coeffs;  // Dense over structural variables.
    double rhs = 0;
    LinearProgram::RowKind kind = LinearProgram::RowKind::kLe;
  };

  void build_shifted_rows() {
    n_ = lp_.vars_.size();
    for (const auto& row : lp_.rows_) {
      ShiftedRow r;
      r.coeffs.assign(n_, 0.0);
      r.rhs = row.rhs;
      r.kind = row.kind;
      for (const auto& [var, coeff] : row.terms) {
        const auto v = static_cast<std::size_t>(var);
        r.coeffs[v] += coeff;
        r.rhs -= coeff * lp_.vars_[v].lower;
      }
      rows_.push_back(std::move(r));
    }
    // Finite upper bounds become y_j <= upper - lower rows.
    for (std::size_t j = 0; j < n_; ++j) {
      const auto& v = lp_.vars_[j];
      if (v.upper < kInfinity) {
        ShiftedRow r;
        r.coeffs.assign(n_, 0.0);
        r.coeffs[j] = 1.0;
        r.rhs = v.upper - v.lower;
        r.kind = LinearProgram::RowKind::kLe;
        rows_.push_back(std::move(r));
      }
    }
    // Normalize all right-hand sides to be non-negative.
    for (auto& r : rows_) {
      if (r.rhs < 0) {
        for (double& c : r.coeffs) c = -c;
        r.rhs = -r.rhs;
        if (r.kind == LinearProgram::RowKind::kLe) {
          r.kind = LinearProgram::RowKind::kGe;
        } else if (r.kind == LinearProgram::RowKind::kGe) {
          r.kind = LinearProgram::RowKind::kLe;
        }
      }
    }
  }

  void build_tableau() {
    m_ = rows_.size();
    // Columns: structural | slack/surplus (one per row, maybe unused) |
    // artificial (allocated on demand).
    std::size_t slack_count = 0;
    std::size_t artificial_count = 0;
    for (const auto& r : rows_) {
      if (r.kind != LinearProgram::RowKind::kEq) ++slack_count;
      if (r.kind != LinearProgram::RowKind::kLe) ++artificial_count;
    }
    slack_begin_ = n_;
    artificial_begin_ = n_ + slack_count;
    cols_ = n_ + slack_count + artificial_count;

    tab_.assign(m_, std::vector<double>(cols_ + 1, 0.0));
    basis_.assign(m_, 0);

    std::size_t next_slack = slack_begin_;
    std::size_t next_artificial = artificial_begin_;
    for (std::size_t i = 0; i < m_; ++i) {
      const auto& r = rows_[i];
      for (std::size_t j = 0; j < n_; ++j) tab_[i][j] = r.coeffs[j];
      tab_[i][cols_] = r.rhs;
      switch (r.kind) {
        case LinearProgram::RowKind::kLe:
          tab_[i][next_slack] = 1.0;
          basis_[i] = next_slack++;
          break;
        case LinearProgram::RowKind::kGe:
          tab_[i][next_slack++] = -1.0;
          tab_[i][next_artificial] = 1.0;
          basis_[i] = next_artificial++;
          break;
        case LinearProgram::RowKind::kEq:
          tab_[i][next_artificial] = 1.0;
          basis_[i] = next_artificial++;
          break;
      }
    }
  }

  // Runs simplex iterations against the given per-column objective until
  // optimal or unbounded. `allowed_cols` bounds the entering columns.
  LpStatus iterate(const std::vector<double>& obj, std::size_t allowed_cols) {
    // Reduced-cost row: z_j - c_j, recomputed from the basis.
    std::vector<double> reduced(allowed_cols + 1, 0.0);
    auto recompute = [&] {
      for (std::size_t j = 0; j <= allowed_cols; ++j) {
        double z = 0;
        for (std::size_t i = 0; i < m_; ++i) {
          const std::size_t col = (j == allowed_cols) ? cols_ : j;
          z += obj[basis_[i]] * tab_[i][col];
        }
        reduced[j] = z - ((j == allowed_cols) ? 0.0 : obj[j]);
      }
    };
    recompute();

    for (int iter = 0; iter < 100000; ++iter) {
      // Bland's rule: smallest-index column with negative reduced cost.
      std::size_t entering = allowed_cols;
      for (std::size_t j = 0; j < allowed_cols; ++j) {
        if (reduced[j] < -kEps) {
          entering = j;
          break;
        }
      }
      if (entering == allowed_cols) return LpStatus::kOptimal;

      // Ratio test with Bland tie-break on basis index.
      std::size_t pivot_row = m_;
      double best_ratio = kInfinity;
      for (std::size_t i = 0; i < m_; ++i) {
        if (tab_[i][entering] > kEps) {
          const double ratio = tab_[i][cols_] / tab_[i][entering];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (pivot_row == m_ || basis_[i] < basis_[pivot_row]))) {
            best_ratio = ratio;
            pivot_row = i;
          }
        }
      }
      if (pivot_row == m_) return LpStatus::kUnbounded;

      pivot(pivot_row, entering);
      recompute();
    }
    // Iteration cap exceeded; with Bland's rule this should be unreachable
    // for Lemur-sized programs, but fail safe rather than spin.
    return LpStatus::kInfeasible;
  }

  void pivot(std::size_t row, std::size_t col) {
    const double p = tab_[row][col];
    for (double& v : tab_[row]) v /= p;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == row) continue;
      const double factor = tab_[i][col];
      if (std::abs(factor) < kEps) continue;
      for (std::size_t j = 0; j <= cols_; ++j) {
        tab_[i][j] -= factor * tab_[row][j];
      }
    }
    basis_[row] = col;
  }

  bool phase_one() {
    if (artificial_begin_ == cols_) return true;  // No artificials needed.
    std::vector<double> obj(cols_, 0.0);
    for (std::size_t j = artificial_begin_; j < cols_; ++j) obj[j] = -1.0;
    const LpStatus status = iterate(obj, cols_);
    if (status != LpStatus::kOptimal) return false;

    double infeasibility = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= artificial_begin_) infeasibility += tab_[i][cols_];
    }
    if (infeasibility > 1e-7) return false;

    // Pivot any residual (degenerate) artificial out of the basis.
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < artificial_begin_) continue;
      for (std::size_t j = 0; j < artificial_begin_; ++j) {
        if (std::abs(tab_[i][j]) > kEps) {
          pivot(i, j);
          break;
        }
      }
    }
    return true;
  }

  LpStatus phase_two() {
    std::vector<double> obj(cols_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) obj[j] = lp_.vars_[j].objective;
    // Artificial columns are excluded from entering in phase two.
    return iterate(obj, artificial_begin_);
  }

  LpResult extract_result() {
    LpResult out;
    out.status = LpStatus::kOptimal;
    out.values.assign(n_, 0.0);
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] < n_) out.values[basis_[i]] = tab_[i][cols_];
    }
    out.objective = 0;
    for (std::size_t j = 0; j < n_; ++j) {
      out.values[j] += lp_.vars_[j].lower;  // Undo the bound shift.
      out.objective += lp_.vars_[j].objective * out.values[j];
    }
    return out;
  }

  const LinearProgram& lp_;
  std::vector<ShiftedRow> rows_;
  std::size_t n_ = 0;     // Structural variable count.
  std::size_t m_ = 0;     // Row count after bound rows.
  std::size_t cols_ = 0;  // Total columns excluding rhs.
  std::size_t slack_begin_ = 0;
  std::size_t artificial_begin_ = 0;
  std::vector<std::vector<double>> tab_;
  std::vector<std::size_t> basis_;
};

LpResult solve(const LinearProgram& lp) {
  // A variable whose bounds are already contradictory makes the whole
  // program infeasible before any simplex work.
  SimplexSolver solver(lp);
  return solver.run();
}

}  // namespace lemur::solver
