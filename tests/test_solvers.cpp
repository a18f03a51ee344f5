// Tests of the numerical substrate: dense LU, damped Newton-Raphson, and
// the four TESS transient integrators — including empirical order-of-
// accuracy verification and a stiff problem separating Gear from the
// explicit methods.
#include <gtest/gtest.h>

#include <cmath>

#include "solvers/linalg.hpp"
#include "solvers/newton.hpp"
#include "solvers/ode.hpp"

namespace npss::solvers {
namespace {

// --- Linear algebra --------------------------------------------------------------

TEST(Linalg, LuSolvesDenseSystem) {
  Matrix a(3, 3);
  a(0, 0) = 2;  a(0, 1) = 1;  a(0, 2) = -1;
  a(1, 0) = -3; a(1, 1) = -1; a(1, 2) = 2;
  a(2, 0) = -2; a(2, 1) = 1;  a(2, 2) = 2;
  LuFactorization lu(a);
  std::vector<double> x = lu.solve({8, -11, -3});
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(Linalg, PivotingHandlesZeroDiagonal) {
  Matrix a(2, 2);
  a(0, 0) = 0; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 0;
  std::vector<double> x = LuFactorization(a).solve({3, 7});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linalg, SingularMatrixDetected) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, util::ConvergenceError);
}

TEST(Linalg, IdentityAndMultiply) {
  Matrix eye = Matrix::identity(4);
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_EQ(eye.multiply(v), v);
  EXPECT_NEAR(LuFactorization(eye).abs_determinant(), 1.0, 1e-15);
}

TEST(Linalg, RandomishSystemResidualSmall) {
  const std::size_t n = 12;
  Matrix a(n, n);
  std::vector<double> truth(n);
  // Deterministic pseudo-random fill.
  std::uint64_t s = 12345;
  auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 33) / (1ull << 31) - 0.5;
  };
  for (std::size_t i = 0; i < n; ++i) {
    truth[i] = next();
    for (std::size_t j = 0; j < n; ++j) a(i, j) = next();
    a(i, i) += 4.0;  // diagonal dominance
  }
  std::vector<double> b = a.multiply(truth);
  std::vector<double> x = LuFactorization(a).solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-10);
}

// --- Newton-Raphson ---------------------------------------------------------------

TEST(Newton, SolvesCoupledNonlinearSystem) {
  // x^2 + y^2 = 4, x y = 1.
  ResidualFn f = [](const std::vector<double>& v) {
    return std::vector<double>{v[0] * v[0] + v[1] * v[1] - 4.0,
                               v[0] * v[1] - 1.0};
  };
  NewtonResult r = newton_solve(f, {2.0, 0.3});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.solution[0] * r.solution[1], 1.0, 1e-8);
  EXPECT_NEAR(r.solution[0] * r.solution[0] + r.solution[1] * r.solution[1],
              4.0, 1e-8);
}

TEST(Newton, DampingRescuesOvershoot) {
  // atan has a famously divergent undamped Newton from |x| > ~1.39.
  ResidualFn f = [](const std::vector<double>& v) {
    return std::vector<double>{std::atan(v[0])};
  };
  NewtonResult r = newton_solve(f, {5.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.solution[0], 0.0, 1e-8);
}

TEST(Newton, ReportsFailureWithBestIterate) {
  // No root: x^2 + 1 = 0.
  ResidualFn f = [](const std::vector<double>& v) {
    return std::vector<double>{v[0] * v[0] + 1.0};
  };
  NewtonOptions opt;
  opt.max_iterations = 10;
  EXPECT_THROW((void)newton_solve(f, {3.0}, opt), util::ConvergenceError);
  NewtonResult r = newton_try_solve(f, {3.0}, opt);
  EXPECT_FALSE(r.converged);
  EXPECT_GE(r.residual_norm, 1.0);
}

TEST(Newton, DimensionMismatchIsModelError) {
  ResidualFn f = [](const std::vector<double>&) {
    return std::vector<double>{0.0, 0.0};
  };
  EXPECT_THROW((void)newton_solve(f, {1.0}), util::ModelError);
}

TEST(Newton, CountsFunctionEvaluations) {
  ResidualFn f = [](const std::vector<double>& v) {
    return std::vector<double>{v[0] - 2.0};
  };
  NewtonResult r = newton_solve(f, {0.0});
  EXPECT_GT(r.function_evaluations, 1);
  EXPECT_LE(r.function_evaluations, 10);
}

// --- Newton with a carried Jacobian ------------------------------------------------

/// x^2 + y^2 = 4 + p, x y = 1 + p/10: a family of nearby systems, as the
/// flow match sees from one engine evaluation to the next. Counts calls
/// and remembers where the last one was made.
struct CountedFamily {
  double p = 0.0;
  int calls = 0;
  std::vector<double> last_x;
  std::vector<std::vector<double>> points;

  ResidualFn fn() {
    return [this](const std::vector<double>& v) {
      ++calls;
      last_x = v;
      points.push_back(v);
      return std::vector<double>{v[0] * v[0] + v[1] * v[1] - 4.0 - p,
                                 v[0] * v[1] - 1.0 - 0.1 * p};
    };
  }
};

TEST(NewtonCarry, NearbySolvesMatchPlainSolvesWithFewerEvaluations) {
  CountedFamily plain_f, carry_f;
  JacobianCarry carry;
  std::vector<double> plain_x{2.0, 0.5}, carry_x{2.0, 0.5};
  int plain_evals = 0, carry_evals = 0;
  for (int k = 0; k < 20; ++k) {
    plain_f.p = carry_f.p = 0.02 * k;
    plain_f.calls = carry_f.calls = 0;
    NewtonResult a = newton_solve(plain_f.fn(), plain_x);
    NewtonResult b = newton_solve(carry_f.fn(), carry_x, {}, carry);
    // The reported count is every residual call, no more, no less.
    EXPECT_EQ(a.function_evaluations, plain_f.calls);
    EXPECT_EQ(b.function_evaluations, carry_f.calls);
    ASSERT_TRUE(b.converged);
    EXPECT_LE(b.residual_norm, NewtonOptions{}.tolerance);
    EXPECT_NEAR(b.solution[0], a.solution[0], 1e-8);
    EXPECT_NEAR(b.solution[1], a.solution[1], 1e-8);
    plain_evals += a.function_evaluations;
    carry_evals += b.function_evaluations;
    plain_x = a.solution;
    carry_x = b.solution;
  }
  EXPECT_FALSE(carry.empty());
  // Each plain iteration pays 2 finite-difference columns + 1 step; a
  // carried one only the step.
  EXPECT_LT(carry_evals * 3, plain_evals * 2)
      << carry_evals << " vs " << plain_evals;
}

TEST(NewtonCarry, WrongJacobianIsRefreshedAndStillConverges) {
  // Learn the right Jacobian near the root, then corrupt it two ways.
  CountedFamily f;
  JacobianCarry learned;
  NewtonResult ref = newton_solve(f.fn(), {2.0, 0.5}, {}, learned);
  ASSERT_TRUE(ref.converged);

  JacobianCarry flipped = learned;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) flipped.jacobian(i, j) *= -1.0;
  }
  JacobianCarry foreign;  // from another system: d/dx of (y, x)
  foreign.jacobian = Matrix(2, 2);
  foreign.jacobian(0, 1) = 1.0;
  foreign.jacobian(1, 0) = 1.0;

  for (JacobianCarry* carry : {&flipped, &foreign}) {
    f.p = 0.1;
    f.points.clear();
    NewtonResult r = newton_solve(f.fn(), ref.solution, {}, *carry);
    ASSERT_TRUE(r.converged);
    EXPECT_NEAR(r.solution[0] * r.solution[1], 1.01, 1e-8);
    EXPECT_NEAR(r.solution[0] * r.solution[0] + r.solution[1] * r.solution[1],
                4.1, 1e-8);
    // The rejected full step was followed by finite-difference columns at
    // the starting point, which only the refresh path makes.
    ASSERT_GE(f.points.size(), 4u);
    const double h = NewtonOptions{}.fd_step * std::max(1.0, ref.solution[0]);
    EXPECT_EQ(f.points[2][0], ref.solution[0] + h);
    EXPECT_EQ(f.points[2][1], ref.solution[1]);
    EXPECT_EQ(f.last_x, r.solution);
  }
}

TEST(NewtonCarry, LastResidualCallIsAtTheSolution) {
  CountedFamily f;
  NewtonResult plain = newton_solve(f.fn(), {2.0, 0.3});
  EXPECT_EQ(f.last_x, plain.solution);

  JacobianCarry carry;
  for (double p : {0.0, 0.05, 0.3, 0.0}) {
    f.p = p;
    NewtonResult r = newton_solve(f.fn(), {2.0, 0.3}, {}, carry);
    EXPECT_EQ(f.last_x, r.solution) << "p = " << p;
  }

  // Also when the solve stops at the iteration limit.
  NewtonOptions opt;
  opt.max_iterations = 2;
  ResidualFn no_root = [&f](const std::vector<double>& v) {
    f.last_x = v;
    return std::vector<double>{v[0] * v[0] + 1.0};
  };
  NewtonResult stuck = newton_try_solve(no_root, {3.0}, opt);
  EXPECT_FALSE(stuck.converged);
  EXPECT_EQ(f.last_x, stuck.solution);
}

TEST(NewtonCarry, DimensionChangeDropsTheCarry) {
  JacobianCarry carry;
  carry.jacobian = Matrix::identity(3);
  CountedFamily f;
  NewtonResult r = newton_solve(f.fn(), {2.0, 0.5}, {}, carry);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(carry.jacobian.rows(), 2u);
  EXPECT_EQ(carry.jacobian.cols(), 2u);
  // The first iteration built its Jacobian by finite differences.
  ASSERT_GE(f.points.size(), 3u);
  const double h = NewtonOptions{}.fd_step * 2.0;
  EXPECT_EQ(f.points[1], (std::vector<double>{2.0 + h, 0.5}));
  EXPECT_EQ(f.points[2], (std::vector<double>{2.0, 0.5 + NewtonOptions{}.fd_step}));
}

// --- ODE integrators: exact-solution accuracy -----------------------------------------

/// y' = -y + sin(t), y(0)=1; exact: y = 0.5(sin t - cos t) + 1.5 e^-t.
double exact(double t) {
  return 0.5 * (std::sin(t) - std::cos(t)) + 1.5 * std::exp(-t);
}

OdeFn test_rhs() {
  return [](double t, const std::vector<double>& y) {
    return std::vector<double>{-y[0] + std::sin(t)};
  };
}

class IntegratorAccuracy : public ::testing::TestWithParam<IntegratorKind> {};

TEST_P(IntegratorAccuracy, ConvergesToExactSolution) {
  auto integ = make_integrator(GetParam());
  std::vector<double> y =
      integrate(*integ, test_rhs(), 0.0, 2.0, 0.01, {1.0});
  EXPECT_NEAR(y[0], exact(2.0), 5e-5)
      << integrator_name(GetParam());
}

TEST_P(IntegratorAccuracy, ObservedOrderAtLeastNominal) {
  auto run = [&](double h) {
    auto integ = make_integrator(GetParam());
    std::vector<double> y = integrate(*integ, test_rhs(), 0.0, 1.0, h, {1.0});
    return std::abs(y[0] - exact(1.0));
  };
  const double e1 = run(0.05);
  const double e2 = run(0.025);
  const double observed = std::log2(e1 / e2);
  const int nominal = make_integrator(GetParam())->order();
  EXPECT_GT(observed, nominal - 0.35)
      << integrator_name(GetParam()) << ": errors " << e1 << " -> " << e2;
}

TEST_P(IntegratorAccuracy, ResetClearsHistory) {
  auto integ = make_integrator(GetParam());
  std::vector<double> first =
      integrate(*integ, test_rhs(), 0.0, 1.0, 0.1, {1.0});
  integ->reset();
  std::vector<double> second =
      integrate(*integ, test_rhs(), 0.0, 1.0, 0.1, {1.0});
  EXPECT_DOUBLE_EQ(first[0], second[0]);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, IntegratorAccuracy,
                         ::testing::ValuesIn(all_integrators()),
                         [](const auto& info) {
                           std::string name(integrator_name(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Integrators, GearStableOnStiffProblemWhereExplicitBlowsUp) {
  // y' = -1000 (y - cos t); explicit methods need h < ~0.002.
  OdeFn stiff = [](double t, const std::vector<double>& y) {
    return std::vector<double>{-1000.0 * (y[0] - std::cos(t))};
  };
  const double h = 0.02;
  auto gear = make_integrator(IntegratorKind::kGear);
  std::vector<double> yg = integrate(*gear, stiff, 0.0, 1.0, h, {0.0});
  EXPECT_NEAR(yg[0], std::cos(1.0), 0.05);

  auto euler = make_integrator(IntegratorKind::kModifiedEuler);
  std::vector<double> ye = integrate(*euler, stiff, 0.0, 1.0, h, {0.0});
  EXPECT_GT(std::abs(ye[0]), 100.0) << "explicit method should be unstable";
}

TEST(Integrators, RhsEvaluationCostsOrdered) {
  // Per step: ModifiedEuler 2, RK4 4, Adams 2, Gear (iterative) > 4.
  auto count = [&](IntegratorKind kind) {
    auto integ = make_integrator(kind);
    integrate(*integ, test_rhs(), 0.0, 1.0, 0.1, {1.0});
    return integ->evaluations();
  };
  EXPECT_EQ(count(IntegratorKind::kModifiedEuler), 20);
  EXPECT_EQ(count(IntegratorKind::kRungeKutta4), 40);
  EXPECT_EQ(count(IntegratorKind::kAdams), 20);
  // Gear's Newton corrector costs extra evaluations per step (Jacobian
  // columns + iterations), more than the fixed-stage explicit methods.
  EXPECT_GT(count(IntegratorKind::kGear), count(IntegratorKind::kAdams));
}

TEST(Integrators, FinalStepClipsToInterval) {
  auto integ = make_integrator(IntegratorKind::kRungeKutta4);
  // 0.3 does not divide 1.0; the last step must land exactly on t=1.
  std::vector<double> y = integrate(*integ, test_rhs(), 0.0, 1.0, 0.3, {1.0});
  EXPECT_NEAR(y[0], exact(1.0), 1e-4);
}

TEST(Integrators, BadStepRejected) {
  auto integ = make_integrator(IntegratorKind::kRungeKutta4);
  EXPECT_THROW(
      (void)integrate(*integ, test_rhs(), 0.0, 1.0, 0.0, {1.0}),
      util::ModelError);
}

TEST(Integrators, MultiDimensionalSystem) {
  // Harmonic oscillator: x'' = -x as a 2-state system; energy conserved.
  OdeFn osc = [](double, const std::vector<double>& y) {
    return std::vector<double>{y[1], -y[0]};
  };
  auto integ = make_integrator(IntegratorKind::kRungeKutta4);
  std::vector<double> y = integrate(*integ, osc, 0.0, 2.0 * M_PI, 0.01,
                                    {1.0, 0.0});
  EXPECT_NEAR(y[0], 1.0, 1e-6);
  EXPECT_NEAR(y[1], 0.0, 1e-6);
}

}  // namespace
}  // namespace npss::solvers
