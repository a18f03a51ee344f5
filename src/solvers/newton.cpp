#include "solvers/newton.hpp"

#include <cmath>
#include <optional>

#include "util/status.hpp"

namespace npss::solvers {

namespace {

/// The smallest backtracking factor the line search tries before it takes
/// the step whether or not ||F|| fell.
constexpr double kMinDamping = 1.0 / 64;

/// Finite-difference Jacobian at (x, fx), one column per unknown.
Matrix fd_jacobian(const ResidualFn& residual, const std::vector<double>& x,
                   const std::vector<double>& fx, const NewtonOptions& opt,
                   NewtonResult& result) {
  const std::size_t n = x.size();
  Matrix jac(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double h = opt.fd_step * std::max(1.0, std::abs(x[j]));
    std::vector<double> xp = x;
    xp[j] += h;
    std::vector<double> fp = residual(xp);
    ++result.function_evaluations;
    for (std::size_t i = 0; i < n; ++i) {
      jac(i, j) = (fp[i] - fx[i]) / h;
    }
  }
  return jac;
}

/// The Newton step J^-1 (-fx).
std::vector<double> newton_step(Matrix jac, const std::vector<double>& fx) {
  const std::size_t n = fx.size();
  std::vector<double> rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = -fx[i];
  std::optional<LuFactorization> lu;
  try {
    lu.emplace(jac);
  } catch (const util::ConvergenceError&) {
    // Singular Jacobian — typically an unknown pinned at a model clamp
    // so its finite-difference column vanished. Regularize the diagonal
    // (Levenberg-style) and move in the remaining directions.
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        scale = std::max(scale, std::abs(jac(i, j)));
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      jac(k, k) += 1e-4 * scale + 1e-10;
    }
    lu.emplace(jac);
  }
  return lu->solve(rhs);
}

/// Broyden's "good" rank-1 update: J += (df - J dx) dx^T / (dx^T dx), the
/// least change to J that maps the step just taken onto the residual
/// change it caused.
void broyden_update(Matrix& jac, const std::vector<double>& dx,
                    const std::vector<double>& df) {
  const std::size_t n = dx.size();
  double dx2 = 0.0;
  for (double d : dx) dx2 += d * d;
  if (!(dx2 > 0.0)) return;
  const std::vector<double> jdx = jac.multiply(dx);
  for (std::size_t i = 0; i < n; ++i) {
    const double miss = (df[i] - jdx[i]) / dx2;
    for (std::size_t j = 0; j < n; ++j) jac(i, j) += miss * dx[j];
  }
}

NewtonResult run(const ResidualFn& residual, std::vector<double> x,
                 const NewtonOptions& opt, JacobianCarry* carry) {
  NewtonResult result;
  const std::size_t n = x.size();
  std::vector<double> fx = residual(x);
  ++result.function_evaluations;
  if (fx.size() != n) {
    throw util::ModelError("newton: residual dimension " +
                           std::to_string(fx.size()) + " != unknowns " +
                           std::to_string(n));
  }
  double norm = inf_norm(fx);
  if (carry != nullptr &&
      (carry->jacobian.rows() != n || carry->jacobian.cols() != n)) {
    carry->clear();
  }

  for (int iter = 0; iter < opt.max_iterations; ++iter) {
    if (norm <= opt.tolerance) {
      result.solution = std::move(x);
      result.residual_norm = norm;
      result.iterations = iter;
      result.converged = true;
      return result;
    }
    std::vector<double> x_new(n);
    std::vector<double> f_new;
    double norm_new = norm;
    bool accepted = false;
    if (carry != nullptr && !carry->empty()) {
      // Carried (non-fresh) Jacobian: the full step only, kept only if it
      // lowers ||F||.
      const std::vector<double> step = newton_step(carry->jacobian, fx);
      for (std::size_t i = 0; i < n; ++i) x_new[i] = x[i] + step[i];
      f_new = residual(x_new);
      ++result.function_evaluations;
      norm_new = inf_norm(f_new);
      accepted = norm_new < norm;
      if (!accepted) carry->clear();
    }
    if (!accepted) {
      Matrix jac = fd_jacobian(residual, x, fx, opt, result);
      const std::vector<double> step = newton_step(jac, fx);
      // Backtracking line search on ||F||_inf.
      double lambda = 1.0;
      while (true) {
        for (std::size_t i = 0; i < n; ++i) x_new[i] = x[i] + lambda * step[i];
        f_new = residual(x_new);
        ++result.function_evaluations;
        norm_new = inf_norm(f_new);
        if (norm_new < norm || lambda <= kMinDamping) break;
        lambda *= 0.5;
      }
      if (carry != nullptr) carry->jacobian = std::move(jac);
    }
    if (carry != nullptr) {
      std::vector<double> dx(n), df(n);
      for (std::size_t i = 0; i < n; ++i) {
        dx[i] = x_new[i] - x[i];
        df[i] = f_new[i] - fx[i];
      }
      broyden_update(carry->jacobian, dx, df);
    }
    x = std::move(x_new);
    fx = std::move(f_new);
    norm = norm_new;
  }

  result.solution = std::move(x);
  result.residual_norm = norm;
  result.iterations = opt.max_iterations;
  result.converged = norm <= opt.tolerance;
  return result;
}

NewtonResult converged_or_throw(NewtonResult result) {
  if (!result.converged) {
    throw util::ConvergenceError(
        "Newton-Raphson failed: residual " +
        std::to_string(result.residual_norm) + " after " +
        std::to_string(result.iterations) + " iterations");
  }
  return result;
}

}  // namespace

NewtonResult newton_solve(const ResidualFn& residual,
                          std::vector<double> initial,
                          const NewtonOptions& options) {
  return converged_or_throw(
      run(residual, std::move(initial), options, nullptr));
}

NewtonResult newton_solve(const ResidualFn& residual,
                          std::vector<double> initial,
                          const NewtonOptions& options, JacobianCarry& carry) {
  return converged_or_throw(
      run(residual, std::move(initial), options, &carry));
}

NewtonResult newton_try_solve(const ResidualFn& residual,
                              std::vector<double> initial,
                              const NewtonOptions& options) {
  return run(residual, std::move(initial), options, nullptr);
}

}  // namespace npss::solvers
