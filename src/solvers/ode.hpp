// ODE integrators for TESS transients (§3.2): Modified (Improved) Euler,
// classic fourth-order Runge-Kutta, an Adams-Bashforth-Moulton
// predictor-corrector, and a Gear (BDF) method for stiff volume dynamics.
// Multistep methods keep history, so an Integrator instance is stateful and
// must be reset() between independent transients.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace npss::solvers {

/// Right-hand side of y' = f(t, y).
using OdeFn = std::function<std::vector<double>(double, const std::vector<double>&)>;

enum class IntegratorKind : std::uint8_t {
  kModifiedEuler = 0,  ///< Heun's method (TESS "Modified/Improved Euler")
  kRungeKutta4,
  kAdams,              ///< AB2 predictor / AM2 corrector, RK4 start
  kGear,               ///< BDF2, Newton-corrected, BDF1 start
};

std::string_view integrator_name(IntegratorKind kind);

/// All kinds in the order the TESS system-module widget lists them.
const std::vector<IntegratorKind>& all_integrators();

class Integrator {
 public:
  virtual ~Integrator() = default;

  virtual IntegratorKind kind() const = 0;

  /// Nominal order of accuracy (observed order is tested against this).
  virtual int order() const = 0;

  /// Advance one step from (t, y) with step h; returns y(t + h).
  virtual std::vector<double> step(const OdeFn& f, double t,
                                   const std::vector<double>& y,
                                   double h) = 0;

  /// Drop multistep history (call when state jumps discontinuously).
  virtual void reset() {}

  /// RHS evaluations consumed so far (the cost metric for A6).
  long evaluations() const { return evaluations_; }

 protected:
  std::vector<double> eval(const OdeFn& f, double t,
                           const std::vector<double>& y) {
    ++evaluations_;
    return f(t, y);
  }

 private:
  long evaluations_ = 0;
};

std::unique_ptr<Integrator> make_integrator(IntegratorKind kind);

/// The last result of an expensive right-hand side g(y, u) — an engine
/// evaluation at states y and fuel flow u — returned again when the same
/// (y, u) is asked for next: an integrator's first stage at the state the
/// previous step accepted, which its caller has just evaluated to sample
/// or test. Exact when every evaluation of the run goes through one
/// instance and g depends only on its arguments and on the state its own
/// last call left behind (a flow match warm-started at the solution of an
/// identical call converges at iteration 0 and repeats the same calls).
template <typename Result>
class LastEvaluation {
 public:
  using Fn = std::function<Result(const std::vector<double>&, double)>;

  explicit LastEvaluation(Fn fn) : fn_(std::move(fn)) {}

  const Result& operator()(const std::vector<double>& y, double u) {
    if (!valid_ || y != y_ || u != u_) {
      valid_ = false;
      last_ = fn_(y, u);
      y_ = y;
      u_ = u;
      valid_ = true;
    }
    return last_;
  }

 private:
  Fn fn_;
  bool valid_ = false;
  std::vector<double> y_;
  double u_ = 0.0;
  Result last_{};
};

/// Fixed-step integration from t0 to t1 (h is clipped on the final step).
/// `observer`, if provided, is called after every accepted step.
std::vector<double> integrate(
    Integrator& integrator, const OdeFn& f, double t0, double t1, double h,
    std::vector<double> y0,
    const std::function<void(double, const std::vector<double>&)>& observer =
        nullptr);

}  // namespace npss::solvers
