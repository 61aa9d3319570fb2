import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from setdecomp import simplex
from setdecomp.simplex import (
    LinearProgram,
    LPSolution,
    solve_lp,
    solve_min_nonneg,
)

F = Fraction


def test_bounded_max():
    lp = LinearProgram(1, [F(1)], maximize=True, constraints=[([F(1)], "<=", F(3))], nonneg=True)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 3
    assert sol.assignment == [F(3)]
    # dual certificate: y = 1, y * 3 = 3 matches the primal optimum
    assert sol.certificate == [F(1)]


def test_unbounded_with_ray():
    lp = LinearProgram(1, [F(1)], maximize=True, constraints=[([F(1)], ">=", F(0))], nonneg=True)
    sol = solve_lp(lp)
    assert sol.status == "unbounded"
    ray = sol.certificate
    # the ray is feasible for the homogenized constraints and improves the goal
    assert ray[0] > 0


def test_infeasible_with_farkas():
    lp = LinearProgram(
        1,
        [F(0)],
        maximize=False,
        constraints=[([F(1)], "<=", F(-1))],
        nonneg=True,
    )
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    y = sol.certificate
    # Farkas: y combines the rows into 0 >= y.A x while y.b > 0,
    # so no nonnegative x can satisfy the system
    assert y[0] * F(1) <= 0
    assert y[0] * F(-1) > 0


@pytest.mark.parametrize(
    "lp, status",
    [
        (LinearProgram(2, [1, "1/2"], True, [([1, 1], "<=", "3/2"), ({0: 2}, ">=", 1)], True), "optimal"),
        (LinearProgram(1, [0], False, [([1], "<=", -1)], nonneg=True), "infeasible"),
        (LinearProgram(2, ["-1/3", 0], False, [([1, -1], "=", 2)]), "unbounded"),
    ],
)
def test_results_are_fractions_for_int_and_string_inputs(lp, status):
    # the tableau holds Fractions only, so no result needs a converting copy
    sol = solve_lp(lp)
    assert sol.status == status
    numbers = sol.assignment + sol.certificate + ([] if sol.value is None else [sol.value])
    assert numbers and all(type(v) is F for v in numbers)


def test_equality_and_free_variables():
    # min x + y s.t. x - y = 2, free variables
    lp = LinearProgram(
        2,
        [F(1), F(1)],
        maximize=False,
        constraints=[([F(1), F(-1)], "=", F(2))],
    )
    sol = solve_lp(lp)
    # y can go to -inf together with x, objective x + y = 2 + 2y unbounded below
    assert sol.status == "unbounded"


def test_degenerate_and_redundant_rows():
    lp = LinearProgram(
        2,
        [F(1), F(2)],
        maximize=False,
        constraints=[
            ([F(1), F(1)], ">=", F(1)),
            ([F(2), F(2)], ">=", F(2)),  # redundant copy
            ([F(1), F(0)], "<=", F(1)),
        ],
        nonneg=True,
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == 1
    assert sol.assignment == [F(1), F(0)]


def verify_optimal(lp, sol):
    assert sol.status == "optimal"
    for (row, rel, rhs), y in zip(lp.constraints, sol.certificate):
        lhs = sum(a * x for a, x in zip(row, sol.assignment))
        if rel == "<=":
            assert lhs <= rhs
        elif rel == ">=":
            assert lhs >= rhs
        else:
            assert lhs == rhs
    # strong duality: certificate value equals primal value
    dual_value = sum(y * rhs for (_, _, rhs), y in zip(lp.constraints, sol.certificate))
    assert dual_value == sol.value


def test_random_lps_certificates(rng):
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        constraints = []
        for _ in range(m):
            row = [F(rng.randint(-3, 3)) for _ in range(n)]
            rel = rng.choice(["<=", ">=", "="])
            constraints.append((row, rel, F(rng.randint(-2, 4))))
        lp = LinearProgram(
            n,
            [F(rng.randint(-3, 3)) for _ in range(n)],
            maximize=rng.random() < 0.5,
            constraints=constraints,
            nonneg=True,
        )
        sol = solve_lp(lp)
        if sol.status == "optimal":
            verify_optimal(lp, sol)


def test_structured_matches_generic(rng):
    # min c.x, A x >= b, x >= 0 with c >= 0: the structured solver must agree
    # with the generic tableau on status and optimal value
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        rows = [[F(rng.randint(-2, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-2, 3)) for _ in range(m)]
        costs = [F(rng.randint(0, 3)) for _ in range(n)]
        sparse = [{j: a for j, a in enumerate(row) if a} for row in rows]
        status, value, x, y = solve_min_nonneg(sparse, rhs, costs)
        lp = LinearProgram(
            n,
            costs,
            maximize=False,
            constraints=[(row, ">=", b) for row, b in zip(rows, rhs)],
            nonneg=True,
        )
        ref = solve_lp(lp)
        assert status == ref.status
        if status == "optimal":
            assert value == ref.value
            for row, b in zip(rows, rhs):
                assert sum(a * xi for a, xi in zip(row, x)) >= b
            assert all(xi >= 0 for xi in x)
            # dual feasibility and strong duality
            assert all(yi >= 0 for yi in y)
            for j in range(n):
                assert sum(rows[i][j] * y[i] for i in range(m)) <= costs[j]
            assert sum(b * yi for b, yi in zip(rhs, y)) == value


def test_validation_errors():
    with pytest.raises(ValueError):
        LinearProgram(2, [F(1)], maximize=True, constraints=[]).validate()
    with pytest.raises(ValueError):
        LinearProgram(
            1, [F(1)], maximize=True, constraints=[([F(1), F(2)], "<=", F(0))]
        ).validate()
    with pytest.raises(ValueError):
        LinearProgram(
            1, [F(1)], maximize=True, constraints=[([F(1)], "<", F(0))]
        ).validate()
    with pytest.raises(ValueError):
        LinearProgram(
            2, [F(1), F(1)], maximize=True, constraints=[({0: F(1), 2: F(1)}, "<=", F(1))]
        ).validate()


def random_dense_lp(rng):
    n = rng.randint(1, 4)
    constraints = []
    for _ in range(rng.randint(0, 5)):
        row = [F(rng.randint(-3, 3)) if rng.random() < 0.6 else F(0) for _ in range(n)]
        constraints.append((row, rng.choice(["<=", ">=", "="]), F(rng.randint(-2, 4))))
    objective = [F(rng.randint(-3, 3)) for _ in range(n)]
    return n, objective, constraints


def test_sparse_rows_solve_like_dense_rows(rng):
    statuses = set()
    for _ in range(200):
        n, objective, constraints = random_dense_lp(rng)
        sparse = [({j: a for j, a in enumerate(row) if a}, rel, b) for row, rel, b in constraints]
        maximize, nonneg = rng.random() < 0.5, rng.random() < 0.5
        dense_sol = solve_lp(LinearProgram(n, objective, maximize, constraints, nonneg))
        sparse_sol = solve_lp(LinearProgram(n, objective, maximize, sparse, nonneg))
        assert sparse_sol == dense_sol
        statuses.add(dense_sol.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


def check_structured_optimum(rows, rhs, costs, value, x, y):
    """x and y are feasible for the primal and the dual and close the gap."""
    assert all(v >= 0 for v in x) and all(v >= 0 for v in y)
    for row, b in zip(rows, rhs):
        assert sum(a * x[j] for j, a in row.items()) >= b
    col = [F(0)] * len(costs)
    for row, yi in zip(rows, y):
        for j, a in row.items():
            col[j] += a * yi
    assert all(t <= c for t, c in zip(col, costs))
    assert sum(c * v for c, v in zip(costs, x)) == value
    assert sum(b * v for b, v in zip(rhs, y)) == value


def random_structured_lp(rng):
    """Sparse rows of at most 4 entries, all +-1, like the decomposition LPs."""
    n = rng.randint(2, 12)
    rows, rhs = [], []
    for _ in range(rng.randint(1, 3 * n)):
        cols = rng.sample(range(n), rng.randint(1, min(4, n)))
        rows.append({j: rng.choice((1, -1)) for j in cols})
        rhs.append(F(rng.randint(-6, 6), rng.randint(1, 4)))
    costs = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(n)]
    return rows, rhs, costs


def spy_exact(monkeypatch):
    calls = []
    real = simplex._solve_exact

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(simplex, "_solve_exact", spy)
    return calls


def reference_solve_exact(rows, rhs, costs):
    """The dual-simplex fallback as a hand-built tableau: one row per
    primal variable, m dual columns, n slacks and the rhs, with x read
    off the reduced costs of the slacks."""
    n, m = len(costs), len(rows)
    tab = [[F(0)] * (m + n) + [F(c)] for c in costs]
    for i, row in enumerate(rows):
        for j, a in row.items():
            tab[j][i] = F(a)
    for j in range(n):
        tab[j][m + j] = F(1)
    basis = [m + j for j in range(n)]
    costs_min = [-F(b) for b in rhs] + [F(0)] * n
    status, objrow, _ = simplex._min_simplex(tab, basis, costs_min, [True] * (m + n))
    if status == "unbounded":
        return "infeasible", None, [], []
    x = [objrow[m + j] for j in range(n)]
    y = [F(0)] * (m + n)
    for r, b in enumerate(basis):
        y[b] = tab[r][-1]
    return "optimal", objrow[-1], x, y[:m]


def test_exact_pivoting_matches_reference_tableau(rng):
    lps = [([], [], [F(1), F(2)]), ([{}], [F(0)], []), ([{}], [F(1)], []), ([], [], [])]
    lps += [random_structured_lp(rng) for _ in range(150)]
    statuses = []
    for rows, rhs, costs in lps:
        got = simplex._solve_exact(rows, rhs, costs)
        assert got == reference_solve_exact(rows, rhs, costs)
        statuses.append(got[0])
    assert statuses[:4] == ["optimal", "optimal", "infeasible", "optimal"]
    assert "optimal" in statuses[4:] and "infeasible" in statuses[4:]


def test_certified_route_matches_exact_pivoting(rng, monkeypatch):
    calls = spy_exact(monkeypatch)
    statuses = []
    for _ in range(60):
        rows, rhs, costs = random_structured_lp(rng)
        got = solve_min_nonneg(rows, rhs, costs)
        ref = simplex._solve_exact(rows, rhs, costs)
        assert got[0] == ref[0]
        statuses.append(got[0])
        if got[0] == "optimal":
            assert got[1] == ref[1]
            check_structured_optimum(rows, rhs, costs, *got[1:])
            check_structured_optimum(rows, rhs, costs, *ref[1:])
    # one reference call per LP and no fallback: the optimal LPs are answered
    # by the certified guess, the infeasible ones by the elastic certificate
    assert "optimal" in statuses and "infeasible" in statuses
    assert len(calls) == len(statuses)


def perturb_x(res):
    res.x = res.x + 0.25


def primal_infeasible_x(res):
    # objective still 5/2, but x1 + x2 >= 3/2 fails
    res.x = np.array([2.5, 0.0, 0.0])


def dual_infeasible_y(res):
    # dual objective still 5/2, but column 0 of A^T y exceeds its cost 1
    res.ineqlin.marginals = np.array([-2.5, 0.0, 0.0])


def report_failure(res):
    res.success = False


@pytest.mark.parametrize(
    "spoil", [perturb_x, primal_infeasible_x, dual_infeasible_y, report_failure]
)
def test_spoiled_guess_falls_back_to_exact(spoil, monkeypatch):
    # min x0 + 2 x1 + x2 s.t. x0 + x1 >= 1, x1 + x2 >= 3/2, x0 - x2 >= -1
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    rhs, costs = [F(1), F(3, 2), F(-1)], [F(1), F(2), F(1)]
    expected = solve_min_nonneg(rows, rhs, costs)
    assert expected[:2] == ("optimal", F(5, 2))
    real = scipy.optimize.linprog

    def spoiled(*args, **kwargs):
        res = real(*args, **kwargs)
        spoil(res)
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", spoiled)
    calls = spy_exact(monkeypatch)
    assert solve_min_nonneg(rows, rhs, costs) == expected
    assert len(calls) == 1


def test_structured_infeasible():
    # x0 >= 2 and x0 <= 1
    rows = [{0: 1}, {0: -1}]
    assert solve_min_nonneg(rows, [F(2), F(-1)], [F(1)]) == ("infeasible", None, [], [])


def test_structured_rejects_negative_costs():
    with pytest.raises(ValueError):
        solve_min_nonneg([{0: 1}], [F(1)], [F(-1)])
