// Damped Newton-Raphson with finite-difference Jacobian — the steady-state
// balance method TESS offers (§3.2). The residual callback is deliberately a
// std::function over plain vectors so the same solver drives both the
// in-process engine model and the Schooner-remote one (where each residual
// evaluation fans out RPCs).
//
// A caller that solves a sequence of nearby systems (the flow match inside
// every engine evaluation) may pass a JacobianCarry: the solve then starts
// from the Jacobian the previous solve ended with and keeps it current with
// Broyden's rank-1 "good" update (Broyden 1965) instead of rebuilding it by
// finite differences, which costs n residuals — n round trips of remote
// calls — per iteration.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "solvers/linalg.hpp"

namespace npss::solvers {

struct NewtonOptions {
  double tolerance = 1e-9;  ///< convergence: ||F||_inf below this
  int max_iterations = 50;
  double fd_step = 1e-6;    ///< relative finite-difference step
};

struct NewtonResult {
  std::vector<double> solution;
  double residual_norm = 0.0;
  int iterations = 0;
  int function_evaluations = 0;
  bool converged = false;
};

using ResidualFn =
    std::function<std::vector<double>(const std::vector<double>&)>;

/// A Jacobian kept from one solve to the next; owned by the caller beside
/// its warm start. Empty until a solve fills it.
struct JacobianCarry {
  Matrix jacobian;  ///< 0 x 0 when nothing is carried

  bool empty() const { return jacobian.rows() == 0; }
  void clear() { jacobian = Matrix(); }
};

/// Solve F(x) = 0 starting from `initial`. Throws util::ConvergenceError if
/// the iteration limit is reached without meeting the tolerance, with the
/// best iterate recorded in the message.
///
/// Post-condition (converged or not): the last call to `residual` was at
/// `result.solution`, so state the residual leaves behind (component
/// outputs, network ports) already describes the solution.
NewtonResult newton_solve(const ResidualFn& residual,
                          std::vector<double> initial,
                          const NewtonOptions& options = {});

/// Same, carrying the Jacobian in `carry` across calls. Each iteration
/// uses the carried Jacobian when there is one and takes only its full
/// step; when that step does not lower ||F||_inf the carry is discarded
/// and the iteration falls back to a fresh finite-difference Jacobian at
/// the same x and the damped step of the plain solve. Every accepted step
/// applies the Broyden update, and the result is stored back in `carry`.
/// A carry of another dimension is dropped. `options` keep their meaning.
NewtonResult newton_solve(const ResidualFn& residual,
                          std::vector<double> initial,
                          const NewtonOptions& options, JacobianCarry& carry);

/// Same, but returns the result, converged or not, instead of throwing, so
/// a caller can inspect a failed solve's last iterate and residual norm
/// (the solver tests check the post-condition above on a stuck solve).
NewtonResult newton_try_solve(const ResidualFn& residual,
                              std::vector<double> initial,
                              const NewtonOptions& options = {});

}  // namespace npss::solvers
