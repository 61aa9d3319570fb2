import ast
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import setdecomp
from setdecomp import PreconditionError

SOURCES = sorted(Path(setdecomp.__file__).parent.glob("*.py"))
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# Public names that nothing in the package or the demos calls, kept because
# the paper defines them; each value names the object in the paper
PAPER_OBJECTS = {
    "alt_sum": "V_f(A0; A1..Ak), the alternating sum that defines the hierarchy",
    "is_weakly_k_alternating": "weak k-alternation: V_f <= 0 on every disjoint k-tuple",
    "is_k_alternating": "k-alternation: weak l-alternation for every l <= k",
    "is_weakly_infinite_alternating": "the class without monotonicity that holds cut functions",
    "quotient": "f along a partition: g(I) = f(union of the classes in I)",
    "symmetrize": "f(X) + f(J \\ X) + c; a cut function is i(J) minus that of i",
    "extremal": "phi_A, the intersection indicators of the coverage basis",
    "support_size_bound_check": "coverage coefficients on sets of fewer than k0 elements",
    "dual_wrt": "the dual f(J \\ X) + eta(X) - f(J) by a majorizing charge eta",
    "verify_cut_identities": "the modular-defect identities of the cut, induced and incident functions",
    "recover_clique_weights": "phi1 = i_{H,w'}: the increasing sum part of a cut function",
    "check_vertex_inequality": "deg(v) <= w'(v) + the w'(K) of the cliques K holding v",
    "complete_graph_decomposition": "K_n's 1-bounded sum-decomposition, k(n - k) split at its argmax",
    "complete_bipartite": "K_{a,b}: triangle-free, so its cut function's plus-norm is w(E)",
}


def test_no_assert_statements():
    # python -O strips asserts, so exactness and input checks must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def test_one_route_to_highs():
    # the LP layer hands HiGHS its CSR rows through scipy's own binding;
    # linprog and scipy.sparse are references for the tests only
    found = []
    for path in SOURCES:
        text = path.read_text()
        if "linprog" in text:
            found.append(f"{path.name}: linprog")
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):  # from scipy import sparse names scipy.sparse
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {m}" for m in names if m.startswith("scipy.sparse")]
    assert SOURCES and found == []


def _referenced_names():
    """Every name and attribute the package's modules, other than
    __init__, and the demos read."""
    found = set()
    for path in [p for p in SOURCES if p.name != "__init__.py"] + DEMOS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def test_every_public_name_is_called_or_a_paper_object():
    # a test oracle or an alias has no place in the package's namespace
    public = {k for k, v in vars(setdecomp).items() if not k.startswith("_") and not isinstance(v, ModuleType)}
    called = _referenced_names()
    assert DEMOS
    assert sorted(public - called - PAPER_OBJECTS.keys()) == []
    # each entry is public, has no caller yet, and says what it is in the paper
    stale = [k for k, place in PAPER_OBJECTS.items() if k not in public or k in called or not place]
    assert stale == []


def _calls():
    """(called name, enclosing class, enclosing function) for every call by
    name or attribute in the package; ``cls(...)`` inside a class counts as
    a call of that class."""
    out = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                out.append((cls if name == "cls" else name, cls, fn))
            visit(child, cls, fn)

    for path in SOURCES:
        visit(ast.parse(path.read_text(), str(path)), None, None)
    return out


def test_tables_are_built_from_ints():
    # library code builds every table with SetFunction.from_ints; the
    # parsing constructor reads only values a caller supplies, and no
    # module goes through a table of Fraction coverage coefficients
    watched = {"SetFunction", "CoverageCoefficients", "to_coefficients", "from_coefficients"}
    found = {call for call in _calls() if call[0] in watched}
    readers = {"normalized", "from_callable", "cardinality_based", "from_json_dict"}
    assert found == {("SetFunction", "SetFunction", fn) for fn in readers} | {
        ("CoverageCoefficients", None, "to_coefficients"),
        ("CoverageCoefficients", "CoverageCoefficients", "from_json_dict"),
    }


def test_values_is_read_only_in_core():
    # outside core a set function's table is read as den and nums, so
    # .values appears only as a method call, such as checks.values()
    found = []
    for path in SOURCES:
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "values" and id(node) not in called
        ]
    assert found == []


def test_library_calls_build_no_fraction_view(tmp_path, monkeypatch):
    # every set function made during these calls, inputs included, keeps
    # only its ints: no call reads the table of Fractions
    from setdecomp import core
    from setdecomp.cli import main

    built = []
    fill = core.SetFunction._fill

    def spy(self, *args):
        fill(self, *args)
        built.append(self)

    monkeypatch.setattr(core.SetFunction, "_fill", spy)
    card = [bin(m).count("1") for m in range(32)]
    inputs = {
        "f.json": {"n": 5, "values": [f"{c * (10 - c)}/3" for c in card]},
        "raw.json": {"n": 3, "values": ["1/2"] * 8},
        "g.json": {"n": 4, "edges": [[0, 1, "1"], [1, 2, "3/2"], [2, 3, "2"], [3, 0, "1/3"], [0, 2, "1"]]},
    }
    for name, payload in inputs.items():
        (tmp_path / name).write_text(json.dumps(payload))
        assert main(["check", str(tmp_path / name), "--output", str(tmp_path / f"out-{name}")]) == 0
    for kind in ("sum", "diff", "coverage-diff", "weakly-canonical"):
        out = tmp_path / f"decompose-{kind}.json"
        assert main(["decompose", str(tmp_path / "g.json"), "--kind", kind, "--output", str(out)]) == 0
    f = setdecomp.SetFunction.normalized(setdecomp.GroundSet(5), inputs["f.json"]["values"])
    for name in (
        "is_submodular", "is_increasing", "to_coefficients",
        "upper_charge", "lower_charge", "canonical_dual", "double_dual",
    ):
        getattr(setdecomp, name)(f)
    g = setdecomp.WeightedGraph.build(4, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 0, 1), (0, 2, 1)])
    psi = setdecomp.cut_function(g)
    setdecomp.optimal_sum_decomposition(psi)
    setdecomp.optimal_diff_decomposition(psi)
    setdecomp.c_bounded_feasible(psi, "sum", 1)
    setdecomp.weakly_alt_canonical_decomposition(psi)
    setdecomp.verify_seven_bound(psi)
    setdecomp.clique_bound(g)
    setdecomp.triangle_lps(g)
    setdecomp.complete_graph_decomposition(4)
    psi.shift(1).normalize_at_empty()
    setdecomp.verify_cut_identities(g)
    assert len(built) >= 20
    assert [i for i, h in enumerate(built) if h._values is not None] == []


def _loaded_heavy_modules(code: str) -> str:
    src = str(Path(setdecomp.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code + "; print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src},
    )
    return out.stdout.strip()


def test_import_loads_neither_numpy_nor_scipy():
    assert _loaded_heavy_modules("import sys, setdecomp") == "[]"


def test_charge_calls_load_neither_numpy_nor_scipy():
    # numpy alone adds about a third to the resident memory of these calls
    code = (
        "import sys, setdecomp as sd; "
        "f = sd.SetFunction(sd.GroundSet(4), [bin(m).count('1') * (8 - bin(m).count('1')) for m in range(16)]); "
        "[getattr(sd, name)(f) for name in ('is_submodular', 'is_increasing', 'to_coefficients', "
        "'upper_charge', 'lower_charge', 'canonical_dual', 'double_dual')]"
    )
    assert _loaded_heavy_modules(code) == "[]"


def test_uniform_decomposition_loads_neither_numpy_nor_scipy():
    code = (
        "import sys, setdecomp as sd; "
        "f = sd.SetFunction(sd.GroundSet(4), [0] + [(-1) ** m * m for m in range(1, 16)]); "
        "sd.max_disjoint_alt_sum(f); sd.diff_decompose_uniform(f)"
    )
    assert _loaded_heavy_modules(code) == "[]"


def test_charge_oracle_and_exact_pivoting_load_neither_numpy_nor_scipy():
    # the LP oracle and the exact fallback pivot in rationals; scipy would
    # take the resident memory of these calls from about 16 MB to about 77 MB
    code = (
        "import sys, setdecomp as sd; from setdecomp import simplex; "
        "f = sd.SetFunction(sd.GroundSet(4), [bin(m).count('1') * (8 - bin(m).count('1')) for m in range(16)]); "
        "assert sd.verify_lower_charge_maximality(f); "
        "assert simplex._solve_exact([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: -1}], [1, 2, -1], [1, 2, 1])[:2] == ('optimal', 3)"
    )
    assert _loaded_heavy_modules(code) == "[]"


def test_check_loads_neither_numpy_nor_scipy(tmp_path):
    # check's peak resident memory is about 29 MB; numpy alone would add about 11 MB
    inputs = {
        "f.json": '{"n": 6, "values": [' + ", ".join(f'"{bin(m).count("1") * (12 - bin(m).count("1"))}/7"' for m in range(64)) + "]}",
        "g.json": '{"n": 5, "edges": [[0, 1, "1"], [1, 2, "3/2"], [2, 3, "2"], [3, 4, "1/3"], [4, 0, "5"], [0, 2, "1"]]}',
    }
    calls = []
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
        argv = ["check", str(tmp_path / name), "--output", str(tmp_path / f"out-{name}")]
        calls.append(f"assert setdecomp.cli.main({argv!r}) == 0")
    assert _loaded_heavy_modules("import sys, setdecomp.cli; " + "; ".join(calls)) == "[]"
    assert all((tmp_path / f"out-{name}").exists() for name in inputs)


def test_benchmark_tracer_counts_one_structured_lp_and_one_highs_call(monkeypatch):
    # perfbench/spans.py counts a structured LP from the positional arguments
    # of solve_min_nonneg, which a keyword call would leave at 0; the clique
    # bound's edge-cover LP is one such call (a decomposition LP enters the
    # ladder below it, at simplex._solve_scaled).  The LP layer reaches
    # HiGHS through scipy's own binding of it, not through anything the
    # tracer wraps, so the one HiGHS solve of the traced run is counted
    # here at the seam, simplex._highs
    import importlib.util

    import setdecomp.cli  # noqa: F401  (the tracer wraps every layer)
    from setdecomp import simplex

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    solves = []
    real = simplex._highs
    monkeypatch.setattr(simplex, "_highs", lambda *args: solves.append(1) or real(*args))
    tracer = spans.Tracer()
    tracer.install()
    try:
        setdecomp.clique_bound(setdecomp.complete(4))
    finally:
        tracer.uninstall()
    assert tracer.counts["simplex.structured_calls"] == 1
    assert len(solves) == 1


def _normalized_entries():
    f = setdecomp.cut_function(setdecomp.complete(3)).shift(1)
    charge = setdecomp.Charge(f.ground, [2, 2, 2])
    calls = {
        "weak_violations": lambda: setdecomp.weak_violations(f),
        "is_weakly_k_alternating": lambda: setdecomp.is_weakly_k_alternating(f, 2),
        "is_k_alternating": lambda: setdecomp.is_k_alternating(f, 2),
        "is_weakly_infinite_alternating": lambda: setdecomp.is_weakly_infinite_alternating(f),
        "is_infinite_alternating": lambda: setdecomp.is_infinite_alternating(f),
        "max_disjoint_alt_sum": lambda: setdecomp.max_disjoint_alt_sum(f),
        "to_coefficients": lambda: setdecomp.to_coefficients(f),
        "diff_decompose_canonical": lambda: setdecomp.diff_decompose_canonical(f),
        "diff_decompose_uniform": lambda: setdecomp.diff_decompose_uniform(f),
        "upper_charge": lambda: setdecomp.upper_charge(f),
        "lower_charge": lambda: setdecomp.lower_charge(f),
        "canonical_dual": lambda: setdecomp.canonical_dual(f),
        "double_dual": lambda: setdecomp.double_dual(f),
        "verify_lower_charge_maximality": lambda: setdecomp.verify_lower_charge_maximality(f),
        "dual_wrt": lambda: setdecomp.dual_wrt(f, charge),
        "optimal_sum_decomposition": lambda: setdecomp.optimal_sum_decomposition(f),
        "optimal_diff_decomposition": lambda: setdecomp.optimal_diff_decomposition(f),
        "c_bounded_feasible": lambda: setdecomp.c_bounded_feasible(f, "sum", 1),
        "weakly_alt_canonical_decomposition": lambda: setdecomp.weakly_alt_canonical_decomposition(f),
        "verify_seven_bound": lambda: setdecomp.verify_seven_bound(f),
    }
    return sorted(calls.items())


@pytest.mark.parametrize("name, call", _normalized_entries(), ids=[name for name, _ in _normalized_entries()])
def test_every_entry_refuses_a_nonzero_empty_value_with_one_type(name, call):
    # a caller catches PreconditionError alone, whichever entry refused
    with pytest.raises(PreconditionError, match="empty"):
        call()


@pytest.mark.parametrize("kind", ["sum", "coverage-diff"])
def test_cli_decompose_refuses_a_nonzero_empty_value(kind, tmp_path, capsys):
    from setdecomp.cli import main

    path = tmp_path / "f.json"
    path.write_text(json.dumps(setdecomp.cut_function(setdecomp.complete(3)).shift(1).to_json_dict()))
    assert main(["decompose", str(path), "--kind", kind]) == 3
    assert "empty" in capsys.readouterr().err
