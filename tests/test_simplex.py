import random
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
import scipy.optimize

from conftest import random_graph, spy_certificate_dtypes, spy_exact
from setdecomp import (
    SetFunction,
    WeightedGraph,
    complete,
    cut_function,
    optimal_diff_decomposition,
    optimal_sum_decomposition,
    simplex,
)
from setdecomp.simplex import solve_min_nonneg

F = Fraction


def test_bounded_max():
    # min 3 x subject to x >= 1; its dual max y subject to y <= 3
    status, value, x, y = simplex._solve_exact([{0: F(1)}], [F(1)], [F(3)])
    assert (status, value, x) == ("optimal", 3, [F(1)])
    # the dual optimum y = 3 certifies the primal optimum 3 * 1
    assert y == [F(3)]


def test_unbounded_with_ray():
    # x >= 1 and -x >= 0 leave no x; the dual max y0 subject to y0 - y1 <= 0
    # grows without bound along y0 = y1
    assert simplex._solve_exact([{0: 1}, {0: -1}], [1, 0], [0]) == ("infeasible", None, [], [])


@pytest.mark.parametrize(
    "lp, status",
    [
        (([{0: 1, 1: 2}, {0: 1}], [1, F(1, 2)], [F(3, 2), 1]), "optimal"),
        (([{0: 1, 1: -1}, {1: 1}], ["1/3", 1], [2, "1/2"]), "optimal"),
        (([{0: -1}], ["1/3"], ["2/3"]), "infeasible"),
    ],
)
def test_results_are_fractions_for_int_and_string_inputs(lp, status):
    # ints, Fractions and strings are read as Fractions, so every result is one
    got_status, value, x, y = simplex._solve_exact(*lp)
    assert got_status == status
    numbers = x + y + ([] if value is None else [value])
    assert all(type(v) is F for v in numbers)
    assert bool(numbers) == (status == "optimal")


def test_degenerate_and_redundant_rows():
    # the dual max y0 + 2 y1 subject to y0 + y1 <= 1 twice (x0 and x1 have
    # equal columns) and y1 - y0 <= 0, whose tableau row has rhs 0
    rows = [{0: F(1), 1: F(1), 2: F(-1)}, {0: F(1), 1: F(1), 2: F(1)}]
    rhs, costs = [F(1), F(2)], [F(1), F(1), F(0)]
    status, value, x, y = simplex._solve_exact(rows, rhs, costs)
    assert (status, value, y) == ("optimal", F(3, 2), [F(1, 2), F(1, 2)])
    check_structured_optimum(rows, rhs, costs, value, x, y)


def test_random_lps_certificates(rng):
    statuses = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [{j: F(rng.randint(-3, 3)) for j in range(n)} for _ in range(rng.randint(1, 5))]
        rhs = [F(rng.randint(-3, 3)) for _ in rows]
        costs = [F(rng.randint(0, 4)) for _ in range(n)]
        status, value, x, y = simplex._solve_exact(rows, rhs, costs)
        statuses.add(status)
        if status == "optimal":
            check_structured_optimum(rows, rhs, costs, value, x, y)
    assert statuses == {"optimal", "infeasible"}


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
    status, objrow = simplex._min_simplex(tab, basis, costs_min)
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


def perturb_x(status, x, y):
    return status, [v + 0.25 for v in x], y


def primal_infeasible_x(status, x, y):
    # objective still 5/2, but x1 + x2 >= 3/2 fails
    return status, [2.5, 0.0, 0.0], y


def dual_infeasible_y(status, x, y):
    # dual objective still 5/2, but column 0 of A^T y exceeds its cost 1
    return status, x, [2.5, 0.0, 0.0]


def report_failure(status, x, y):
    return 4, None, None


def patch_highs(monkeypatch, change):
    """Patch the HiGHS seam so that each call returns change(call number,
    status, x, y) of its real result; returns every call's (arguments,
    changed result)."""
    real = simplex._highs
    calls = []

    def patched(*args):
        calls.append((args, change(len(calls), *real(*args))))
        return calls[-1][1]

    monkeypatch.setattr(simplex, "_highs", patched)
    return calls


@pytest.mark.parametrize(
    "spoil", [perturb_x, primal_infeasible_x, dual_infeasible_y, report_failure]
)
def test_spoiled_guess_falls_back_to_exact(spoil, monkeypatch):
    # min x0 + 2 x1 + x2 s.t. x0 + x1 >= 1, x1 + x2 >= 3/2, x0 - x2 >= -1
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    rhs, costs = [F(1), F(3, 2), F(-1)], [F(1), F(2), F(1)]
    expected = solve_min_nonneg(rows, rhs, costs)
    assert expected[:2] == ("optimal", F(5, 2))
    patch_highs(monkeypatch, lambda k, *result: spoil(*result))
    calls = spy_exact(monkeypatch)
    assert solve_min_nonneg(rows, rhs, costs) == expected
    assert len(calls) == 1


def highs_infeasible_on(call_numbers, monkeypatch):
    """Patch the HiGHS seam to report status 2 (infeasible) with no guess
    on the given calls, numbered from 0; returns every call's (arguments,
    result)."""
    return patch_highs(monkeypatch, lambda k, *result: (2, None, None) if k in call_numbers else result)


def test_infeasible_verdicts_on_every_call_end_in_one_exact_pivot(monkeypatch):
    # the elastic LP gets no elastic LP of its own when HiGHS calls it
    # infeasible; the LP and its elastic LP are tried once more with the
    # costs halved into [1, 2), then exact pivoting answers
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    rhs, costs = [F(1), F(3, 2), F(-1)], [F(1), F(2), F(1)]
    expected = simplex._solve_exact(rows, rhs, costs)
    assert expected[:2] == ("optimal", F(5, 2))
    results = highs_infeasible_on(range(10), monkeypatch)
    calls = spy_exact(monkeypatch)
    assert solve_min_nonneg(rows, rhs, costs) == expected
    assert len(results) == 4 and len(calls) == 1
    assert [list(args[1]) for args, _ in results[::2]] == [[1.0, 2.0, 1.0], [0.5, 1.0, 0.5]]


def test_false_infeasible_verdict_falls_back_after_a_zero_elastic_optimum(monkeypatch):
    # a feasible LP: its elastic LP certifies optimum 0, which proves
    # nothing, on the LP and on its rescaled retry alike
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    rhs, costs = [F(1), F(3, 2), F(-1)], [F(1), F(2), F(1)]
    expected = simplex._solve_exact(rows, rhs, costs)
    results = highs_infeasible_on({0, 2}, monkeypatch)
    calls = spy_exact(monkeypatch)
    assert solve_min_nonneg(rows, rhs, costs) == expected
    assert len(results) == 4 and len(calls) == 1
    for (_, c, _), (status, x, _) in results[1::2]:
        assert status == 0 and len(x) == len(costs) + len(rows)
        assert sum(cj * xj for cj, xj in zip(c, x)) == 0


def test_false_infeasible_verdict_is_answered_by_the_rescaled_retry(monkeypatch):
    rows = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}]
    rhs, costs = [F(1), F(3, 2), F(-1)], [F(1), F(2), F(1)]
    expected = solve_min_nonneg(rows, rhs, costs)
    results = highs_infeasible_on({0}, monkeypatch)
    calls = spy_exact(monkeypatch)
    assert solve_min_nonneg(rows, rhs, costs) == expected
    assert len(results) == 3 and not calls


def test_structured_infeasible():
    # x0 >= 2 and x0 <= 1
    rows = [{0: 1}, {0: -1}]
    assert solve_min_nonneg(rows, [F(2), F(-1)], [F(1)]) == ("infeasible", None, [], [])


def test_structured_rejects_negative_costs():
    with pytest.raises(ValueError):
        solve_min_nonneg([{0: 1}], [F(1)], [F(-1)])


@pytest.mark.parametrize(
    "rows, rhs",
    [
        ([{True: 1}], [F(1)]),  # a bool is not a column index
        ([{0.0: 1}], [F(1)]),
        ([{5: 1}], [F(1)]),  # past the last of the 2 columns
        ([{-1: 1}], [F(1)]),
        ([{0: 1}, {1: 1}], [F(1)]),  # one rhs for two rows
    ],
    ids=["bool-key", "float-key", "past-last-column", "negative-key", "rhs-count"],
)
def test_structured_rejects_malformed_rows(rows, rhs):
    with pytest.raises(ValueError):
        solve_min_nonneg(rows, rhs, [F(1), F(1)])


def fraction_certificate(rows, rhs, costs, x, y):
    """The certificate read off its definition in Fractions: c.x when x and
    y are feasible and c.x == b.y, else None."""
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        return None
    if any(sum(a * x[j] for j, a in row.items()) < b for row, b in zip(rows, rhs)):
        return None
    col = [F(0)] * len(costs)
    for row, yi in zip(rows, y):
        for j, a in row.items():
            col[j] += a * yi
    if any(t > c for t, c in zip(col, costs)):
        return None
    value = sum((c * v for c, v in zip(costs, x)), F(0))
    return value if value == sum((b * v for b, v in zip(rhs, y)), F(0)) else None


def spoiled_pairs(x, y, costs, rhs):
    """Pairs (x, y) the certificate must refuse, each spoiled one way."""
    j = next((j for j, c in enumerate(costs) if c > 0), None)
    i = next((i for i, b in enumerate(rhs) if b != 0), None)
    out = [(x[:k] + [F(-1, 3)] + x[k + 1:], y) for k in range(len(x))][:1]
    out += [(x, y[:k] + [F(-1, 2)] + y[k + 1:]) for k in range(len(y))][:1]
    if j is not None:  # c.x moves off b.y
        out.append((x[:j] + [x[j] + F(1, 7)] + x[j + 1:], y))
    if i is not None:  # b.y moves off c.x
        out.append((x, y[:i] + [y[i] + F(1, 5)] + y[i + 1:]))
    return out


def test_array_certificate_matches_the_fraction_oracle(rng, monkeypatch):
    dtypes = spy_certificate_dtypes(monkeypatch)
    checked = refused = 0
    for trial in range(150):
        rows, rhs, costs = random_structured_lp(rng)
        # Fraction coefficients in some rows, and an empty row now and then
        rows = [
            {j: F(a, rng.randint(1, 3)) for j, a in row.items()} if rng.random() < 0.5 else row
            for row in rows
        ]
        if trial % 3 == 0:
            at = rng.randint(0, len(rows))
            rows.insert(at, {})
            rhs.insert(at, F(-rng.randint(0, 2)))
        status, value, x, y = simplex._solve_exact(rows, rhs, costs)
        if status != "optimal":
            continue
        a = simplex._CSRRows.from_maps(rows, len(costs))
        b, c = simplex._scaled(rhs), simplex._scaled(costs)
        assert simplex._certify(a, b, c, simplex._scaled(x), simplex._scaled(y)) == value
        # the same pair over a denominator 2^70 times larger runs on Python ints
        dx, px = simplex._scaled(x)
        del dtypes[:]
        assert simplex._certify(a, b, c, (dx << 70, px.astype(object) << 70), simplex._scaled(y)) == value
        assert dtypes == [object]
        for xs, ys in spoiled_pairs(x, y, costs, rhs):
            assert fraction_certificate(rows, rhs, costs, xs, ys) is None
            assert simplex._certify(a, b, c, simplex._scaled(xs), simplex._scaled(ys)) is None
            refused += 1
        checked += 1
    assert checked > 20 and refused > 3 * checked


def test_highs_seam_returns_floats_or_no_guess():
    # min x0 + 2 x1 subject to x0 + x1 >= 1
    a = simplex._CSRRows.from_maps([{0: 1, 1: 1}], 2)
    status, x, y = simplex._highs(a, np.array([1.0, 2.0]), np.array([1.0]))
    assert status == 0 and x == [1.0, 0.0] and y == [1.0]
    assert all(type(v) is float for v in x + y)
    # x0 >= 1 and x0 <= 0
    a = simplex._CSRRows.from_maps([{0: 1}, {0: -1}], 1)
    status, x, y = simplex._highs(a, np.array([1.0]), np.array([1.0, 0.0]))
    assert (status, x, y) == (2, None, None)


def test_a_model_highs_rejects_is_never_run(monkeypatch):
    # x0 >= 2^67: a row bound past 1e20, HiGHS's infinity, so HiGHS rejects
    # the model; the seam reports it infeasible (status 2).  A fresh
    # per-thread store makes the seam build its solver from CountingHighs
    from scipy.optimize._highspy import _core

    runs = []

    class CountingHighs(_core._Highs):
        def run(self):
            runs.append(1)
            return super().run()

    monkeypatch.setattr(_core, "_Highs", CountingHighs)
    monkeypatch.setattr(simplex, "_solvers", threading.local())
    x0 = simplex._CSRRows.from_maps([{0: 1}], 1)
    assert simplex._highs(x0, np.array([1.0]), np.array([2.0**67])) == (2, None, None)
    assert runs == []
    # x0 >= 2^60 is read and solved
    assert simplex._highs(x0, np.array([1.0]), np.array([2.0**60]))[:2] == (0, [2.0**60])
    assert len(runs) == 1


def float_bits(values):
    return None if values is None else [v.hex() for v in values]


def linprog_reference(a, c, b):
    """scipy's linprog(method="highs") on min c.x, -A x <= -b, x >= 0, read
    as the seam reads HiGHS: (status, x, y) or (status, None, None)."""
    from scipy.sparse import csr_matrix

    neg_a = csr_matrix((-simplex._quotients(a.nums, a.den), a.indices, a.indptr), shape=(len(a), a.ncols))
    res = scipy.optimize.linprog(c, A_ub=neg_a, b_ub=-b, bounds=(0, None), method="highs")
    if not res.success:
        return res.status, None, None
    return res.status, res.x.tolist(), (-res.ineqlin.marginals).tolist()


def seam_lps(rng, count):
    """(A, c, b) for count random LPs, as the ladder hands them to the seam."""
    lps = []
    for _ in range(count):
        rows, rhs, costs = random_structured_lp(rng)
        a = simplex._CSRRows.from_maps(rows, len(costs))
        b, c = simplex._scaled(rhs), simplex._scaled(costs)
        lps.append((a, simplex._quotients(c[1], c[0]), simplex._quotients(b[1], b[0])))
    return lps


def seam_bits(result):
    status, x, y = result
    return status, float_bits(x), float_bits(y)


def test_one_solver_per_thread_answers_each_lp_afresh(rng, monkeypatch):
    # one thread's solver takes a model HiGHS rejects, an infeasible LP,
    # then optimal LPs; none of them leaves a trace on the next
    monkeypatch.setattr(simplex, "_solvers", threading.local())
    x0 = simplex._CSRRows.from_maps([{0: 1}], 1)
    lps = [(x0, np.array([1.0]), np.array([2.0**67]))]
    lps.append((simplex._CSRRows.from_maps([{0: 1}, {0: -1}], 1), np.array([1.0]), np.array([2.0, -1.0])))
    lps += seam_lps(rng, 12)
    statuses, solvers = [], []
    for args in lps:
        got = simplex._highs(*args)
        assert seam_bits(got) == seam_bits(linprog_reference(*args))
        statuses.append(got[0])
        solvers.append(simplex._solvers.highs)
    assert statuses[:2] == [2, 2] and 0 in statuses[2:]
    assert all(solver is solvers[0] for solver in solvers)


def test_two_threads_solve_as_one_does(rng):
    # each worker thread builds its own solver on its first LP
    lps = seam_lps(rng, 8)
    serial = [seam_bits(simplex._highs(*args)) for args in lps]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda args: seam_bits(simplex._highs(*args)), lps))
    assert threaded == serial and 0 in {status for status, _, _ in serial}


def test_highs_counts_are_bounded_by_int32(monkeypatch):
    # HiGHS reads the row starts and column indices as int32, which astype
    # would wrap without a word; the seam refuses such an LP by name
    monkeypatch.setattr(simplex, "_HIGHS_INDEX_LIMIT", 3)
    a = simplex._CSRRows.from_maps([{0: 1}, {1: 1}], 2)
    assert simplex._highs(a, np.array([1.0, 1.0]), np.array([1.0, 1.0]))[0] == 0
    for rows, ncols, count in [
        ([{0: 1}] * 3, 1, "3 rows"),
        ([{2: 1}], 3, "3 columns"),
        ([{0: 1, 1: 1, 2: 1}], 3, "3 entries"),
    ]:
        a = simplex._CSRRows.from_maps(rows, ncols)
        with pytest.raises(ValueError, match=count):
            simplex._highs(a, np.ones(ncols), np.ones(len(rows)))


def test_scipy_binds_the_array_overload_of_pass_model():
    # simplex._highs hands HiGHS its numpy buffers through this overload;
    # a scipy without it fails here by name, not deep in a solve
    from scipy.optimize._highspy import _core

    i32 = np.int32
    args = (1, 1, 1, _core.MatrixFormat.kRowwise, _core.ObjSense.kMinimize, 0.0,
            np.ones(1), np.zeros(1), np.full(1, np.inf), np.full(1, -np.inf), np.full(1, -1.0),
            np.array([0, 1], dtype=i32), np.zeros(1, dtype=i32), np.full(1, -1.0), np.zeros(1, dtype=i32))
    try:
        status = _core._Highs().passModel(*args)
    except TypeError as error:
        pytest.fail(
            f"scipy {scipy.__version__}'s HiGHS binding has no 15-argument array overload of "
            f"_Highs.passModel(num_col, num_row, num_nz, a_format, sense, offset, c, col_lower, "
            f"col_upper, row_lower, row_upper, a_start, a_index, a_value, integrality): {error}"
        )
    assert status == _core.HighsStatus.kOk


def test_direct_and_linprog_routes_return_the_same_bits(rng, monkeypatch):
    """Every LP the seam sees, against linprog on the same -A, c and -b: the
    same status, and x and y bit for bit (signed zeros included)."""
    seen = patch_highs(monkeypatch, lambda k, *result: result)
    for _ in range(30):
        solve_min_nonneg(*random_structured_lp(rng))
    solve_min_nonneg([{0: 1}, {0: -1}], [F(2), F(-1)], [F(1)])  # infeasible
    graphs = [complete(5)] + [random_graph(rng, 5, 0.6) for _ in range(3)]
    for g in graphs:
        psi = cut_function(g)
        optimal_sum_decomposition(psi)
        optimal_diff_decomposition(psi)
    big = len(seen)
    optimal_sum_decomposition(scaled_cut_table(CUT5, 64))
    assert seen[big][1] == (2, None, None)  # HiGHS rejects rhs past its infinity 1e20
    assert {result[0] for _, result in seen} == {0, 2}
    for args, (s1, x1, y1) in seen:
        s2, x2, y2 = linprog_reference(*args)
        assert (s1, float_bits(x1), float_bits(y1)) == (s2, float_bits(x2), float_bits(y2))


# the cut function of this 5-vertex graph, scaled by 2^64, has values near
# 2^66; with the weights 1/2 and 5/3 and scaled by 2^70, its sum LP has
# the optimum 49 * 2^69 / 3, which no float holds
CUT5 = [(0, 1, 2), (1, 2, 1), (2, 3, 3), (0, 3, 1), (3, 4, 5)]
CUT5_THIRDS = [(0, 1, 2), (1, 2, F(1, 2)), (2, 3, 3), (0, 3, 1), (3, 4, F(5, 3))]


def scaled_cut_table(edges, k):
    f = cut_function(WeightedGraph.build(5, edges))
    return SetFunction(f.ground, tuple(v * 2**k for v in f.values))


@pytest.mark.parametrize(
    "edges, k, value",
    [(CUT5, 64, 12 * 2**64), (CUT5_THIRDS, 70, F(49 * 2**69, 3))],
    ids=["2^64", "2^70-thirds"],
)
def test_huge_tables_certify_on_the_rescaled_retry(edges, k, value, monkeypatch):
    # HiGHS rejects the LP and its elastic LP (rhs past 1e20); with b and c
    # divided into [1, 2) by powers of two, the guess certifies and scales back
    psi = scaled_cut_table(edges, k)
    seen = patch_highs(monkeypatch, lambda k, *result: result)
    calls = spy_exact(monkeypatch)
    got = optimal_sum_decomposition(psi)
    assert not calls
    assert [result[0] for _, result in seen] == [2, 2, 0]
    assert got.objective == value and got.reconstruct() == psi
    small = optimal_sum_decomposition(scaled_cut_table(edges, 0))
    assert got.objective == small.objective * 2**k


def rounding_floats(rng):
    """At least 10^4 floats: random ratios of each sign, thirds and other
    small-denominator ratios, signed zeros, huge and tiny magnitudes."""
    out = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e300, 2.0**1000, 1.7976931348623157e308]
    for _ in range(4000):
        q = rng.choice([rng.randint(1, 10**7), rng.randint(1, 10**13), rng.randint(1, 10**17)])
        out.append(rng.randint(-(10**15), 10**15) / q)
    for q in (3, 7, 9, 11, 13, 21, 49, 999983):
        out += [p / q for p in range(-300, 301)]
    for _ in range(1500):
        mantissa = rng.random() * rng.choice([1, -1])
        out.append(mantissa * 2.0 ** rng.randint(-1070, 1020))
    return out


def farey_ties(rng, limit):
    """Rationals midway between neighbours a/b < c/d of the Farey sequence of
    order limit, each of sign +1 and -1.  No float is such a midpoint at
    limit 10^6 or 10^12 (its denominator 2bd is not a power of 2), so
    the tie rule is checked on exact pairs."""
    out = []
    while len(out) < 200:
        b = rng.randint(limit // 2 + 1, limit)
        a = rng.randint(1, 3 * b)
        if gcd(a, b) != 1:
            continue
        d0 = -pow(a, -1, b) % b
        d = d0 + b * ((limit - d0) // b)  # the largest d <= limit with a d = -1 (mod b)
        c = (a * d + 1) // b
        mid = (F(a, b) + F(c, d)) / 2
        assert mid.denominator > limit and abs(mid - F(a, b)) == abs(F(c, d) - mid)
        out += [mid, -mid]
    return out


@pytest.mark.parametrize("limit", [10**6, 10**12])
def test_int_rounding_matches_limit_denominator(rng, limit):
    floats = rounding_floats(rng)
    assert len(floats) >= 10**4
    for v in floats:
        r = F(v).limit_denominator(limit)
        assert simplex._limit_denominator(*v.as_integer_ratio(), limit) == (r.numerator, r.denominator)
    ties = farey_ties(rng, limit)
    for v in ties:
        r = v.limit_denominator(limit)
        assert simplex._limit_denominator(v.numerator, v.denominator, limit) == (r.numerator, r.denominator)
    # _round puts each float's pair over their common denominator
    d, nums = simplex._round(floats[:500], limit)
    assert [F(p, d) for p in nums.tolist()] == [F(v).limit_denominator(limit) for v in floats[:500]]
