import numpy as np
import pytest

from uavm2m import lma


def _rosenbrock(x):
    return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])


def _rosenbrock_jacobian(x):
    return np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])


def test_scalar_root():
    res = lma.solve(lambda x: np.array([x[0] ** 2 - 4.0]), [3.0],
                    jacobian=lambda x: np.array([[2.0 * x[0]]]))
    assert res.converged
    assert res.solution[0] == pytest.approx(2.0, abs=1e-8)


def test_rosenbrock_from_standard_start():
    res = lma.solve(_rosenbrock, [-1.2, 1.0], jacobian=_rosenbrock_jacobian)
    assert res.converged
    assert res.solution == pytest.approx([1.0, 1.0], abs=1e-6)


def test_linear_residual():
    res = lma.solve(lambda x: np.array([x[0]]), [5.0], jacobian=lambda x: np.eye(1))
    assert res.converged
    assert abs(res.solution[0]) < 1e-10


def test_accepted_costs_strictly_decrease():
    def residual(x):
        return np.array([x[0] ** 2 - 4.0, np.sin(x[1]) - 0.3, x[0] * x[1] - 1.0])

    def jacobian(x):
        return np.array([[2.0 * x[0], 0.0], [0.0, np.cos(x[1])], [x[1], x[0]]])

    res = lma.solve(residual, [4.0, 2.0], jacobian=jacobian)
    assert len(res.accepted_costs) > 3
    assert all(a > b for a, b in zip(res.accepted_costs, res.accepted_costs[1:]))


def test_deterministic_iterates():
    def residual(x):
        return np.array([np.exp(x[0]) - 3.0, x[0] + x[1] ** 3])

    def jacobian(x):
        return np.array([[np.exp(x[0]), 0.0], [1.0, 3.0 * x[1] ** 2]])

    a = lma.solve(residual, [0.5, 0.5], jacobian=jacobian)
    b = lma.solve(residual, [0.5, 0.5], jacobian=jacobian)
    assert np.array_equal(a.solution, b.solution)
    assert a.accepted_costs == b.accepted_costs
    assert a.iterations == b.iterations


def test_numeric_jacobian_matches_analytic(rng):
    """Forward differences on polynomial residuals, 1e-5 relative."""
    coeffs = rng.uniform(-2, 2, size=(4, 3))

    def residual(x):
        return np.array([
            c[0] * x[0] ** 2 + c[1] * x[0] * x[1] + c[2] * x[1] ** 3 for c in coeffs
        ])

    def analytic(x):
        return np.array([
            [2 * c[0] * x[0] + c[1] * x[1], c[1] * x[0] + 3 * c[2] * x[1] ** 2]
            for c in coeffs
        ])

    for _ in range(20):
        x = rng.uniform(0.3, 2.0, size=2)
        num = lma.numeric_jacobian(residual, x)
        ana = analytic(x)
        scale = np.maximum(np.abs(ana), 1e-6)
        assert np.max(np.abs(num - ana) / scale) < 1e-5


def test_supplied_jacobian_is_used():
    calls = {"n": 0}

    def residual(x):
        return np.array([x[0] ** 2 - 4.0])

    def jac(x):
        calls["n"] += 1
        return np.array([[2.0 * x[0]]])

    res = lma.solve(residual, [3.0], jacobian=jac)
    assert res.converged and calls["n"] > 0


def test_singular_normal_equations_never_crash():
    # second residual ignores x entirely: J has a zero column pattern that
    # makes J'J singular without damping
    def residual(x):
        return np.array([x[0] + x[1] - 1.0, 0.0 * x[0]])

    res = lma.solve(residual, [10.0, -3.0],
                    jacobian=lambda x: np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert res.converged
    assert res.solution[0] + res.solution[1] == pytest.approx(1.0, abs=1e-8)


def test_nonfinite_at_start_raises():
    with pytest.raises(ValueError):
        lma.solve(lambda x: np.array([np.nan]), [1.0], jacobian=lambda x: np.zeros((1, 1)))


def test_nonfinite_trial_points_are_rejected():
    # residual blows up left of x = 0.5; the solver must still find x = 1
    def residual(x):
        if x[0] < 0.5:
            return np.array([np.inf])
        return np.array([np.log(x[0])])

    res = lma.solve(residual, [3.0], jacobian=lambda x: np.array([[1.0 / x[0]]]))
    assert res.converged
    assert res.solution[0] == pytest.approx(1.0, abs=1e-6)


def test_iteration_budget_respected(monkeypatch):
    # narrow curved valley; needs well over 3 iterations
    monkeypatch.setattr(lma, "_MAX_ITERS", 3)
    res = lma.solve(_rosenbrock, [-1.2, 1.0], jacobian=_rosenbrock_jacobian)
    assert res.iterations == 3
    assert not res.converged
