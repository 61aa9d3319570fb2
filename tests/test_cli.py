import json
import tracemalloc
from fractions import Fraction

import pytest

from setdecomp import (
    CoverageCoefficients,
    ExactnessError,
    GroundSet,
    SetFunction,
    alt_sum,
    complete,
    cut_function,
    format_rational,
    from_coefficients,
    is_decreasing,
    is_increasing,
    is_modular,
    is_submodular,
    make_ell_not_ell_plus_one,
    to_coefficients,
)
from setdecomp import alternating
from setdecomp.cli import main
from oracles import weak_violations_by_pairs


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    return write_json(tmp_path / "k3.json", complete(3).to_json_dict())


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_check_on_graph(capsys, triangle_path):
    code, report = run(capsys, ["check", triangle_path])
    assert code == 0
    assert report["n"] == 3
    assert report["submodular"]["holds"]
    assert not report["increasing"]["holds"]
    assert report["weakly_infinite_alternating"]
    assert not report["infinite_alternating"]
    assert "input_sha256" in report and "version" in report
    profile = {entry["k"]: entry for entry in report["alternating_profile"]}
    # a cut function is not increasing, so already k=1 fails; from k=2 on the
    # weak checks hold while the strong ones keep failing
    assert not profile[1]["weak"]
    assert profile[2]["weak"] and not profile[2]["strong"]


def test_check_on_function(capsys, tmp_path):
    f = cut_function(complete(3))
    path = write_json(tmp_path / "f.json", f.to_json_dict())
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert report["norm"] == "2"
    assert report["coverage"]["nonnegative"] is False


def test_check_skips_alternating_without_normalization(capsys, tmp_path):
    path = write_json(tmp_path / "f.json", {"n": 1, "values": ["1", "1"]})
    code, report = run(capsys, ["check", path])
    assert code == 0
    assert report["alternating_profile"] is None


def test_decompose_sum(capsys, triangle_path):
    code, report = run(capsys, ["decompose", triangle_path, "--kind", "sum"])
    assert code == 0
    assert report["objective"] == "2"
    assert report["decomposition"]["kind"] == "sum"


def test_decompose_c_bounded(capsys, triangle_path):
    code, report = run(capsys, ["decompose", triangle_path, "--c", "2"])
    assert code == 0
    assert report["feasible"] is True
    assert "decomposition" in report


@pytest.mark.parametrize("kind", ["coverage-diff", "weakly-canonical"])
def test_decompose_refuses_c_for_non_lp_kinds(capsys, triangle_path, kind):
    assert main(["decompose", triangle_path, "--kind", kind, "--c", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sum or diff" in captured.err


def test_decompose_weakly_canonical(capsys, triangle_path):
    code, report = run(capsys, ["decompose", triangle_path, "--kind", "weakly-canonical"])
    assert code == 0
    assert report["mu"]["atoms"] == ["2", "2", "2"]
    assert all(report["seven_bound"]["checks"].values())


def test_decompose_weakly_canonical_computes_the_pair_once(capsys, tmp_path, monkeypatch):
    from setdecomp import decompose

    f = cut_function(complete(4))
    path = write_json(tmp_path / "k4.json", f.to_json_dict())
    calls = []
    real = decompose.weakly_alt_canonical_decomposition
    monkeypatch.setattr(
        decompose, "weakly_alt_canonical_decomposition", lambda psi: calls.append(psi) or real(psi)
    )
    code, report = run(capsys, ["decompose", path, "--kind", "weakly-canonical"])
    assert code == 0 and len(calls) == 1
    phi, mu = real(f)
    assert report["phi"] == phi.to_json_dict()
    assert report["mu"] == mu.to_json_dict()
    assert report["seven_bound"] == decompose.verify_seven_bound(f).to_json_dict()


def test_decompose_precondition_exit(capsys, tmp_path):
    # non-submodular input cannot have a sum decomposition
    path = write_json(tmp_path / "f.json", {"n": 2, "values": ["0", "0", "0", "2"]})
    code = main(["decompose", path, "--kind", "sum"])
    assert code == 3


def test_graph_report(capsys, triangle_path):
    code, report = run(capsys, ["graph", triangle_path])
    assert code == 0
    assert report["cuts"]["max_cut"] == "2"
    assert report["triangles"]["nu_star"] == "1"
    assert report["bounds"]["plus_norm"] == "2"
    code2, cuts_only = run(capsys, ["graph", triangle_path, "--report", "cuts"])
    assert code2 == 0
    assert "bounds" not in cuts_only


def test_graph_rejects_function_input(capsys, tmp_path):
    path = write_json(tmp_path / "f.json", {"n": 1, "values": ["0", "1"]})
    assert main(["graph", path]) == 1


def test_generate_round_trip(capsys, tmp_path):
    out = tmp_path / "w5.json"
    code = main(["generate", "wheel", "5", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["generator"] == {"name": "wheel", "params": ["5"]}
    assert len(payload["artifact"]["edges"]) == 8
    # the generate output feeds straight back into the graph command
    code2, report = run(capsys, ["graph", str(out), "--report", "bounds"])
    assert code2 == 0
    assert report["bounds"]["plus_norm"] == "6"


def test_generate_function_artifacts(capsys, tmp_path):
    code, payload = run(capsys, ["generate", "cex-sum", "2"])
    assert code == 0
    assert payload["artifact"]["n"] == 4
    code2, lnl = run(capsys, ["generate", "lnl", "2", "0b111"])
    assert code2 == 0
    assert lnl["artifact"]["n"] == 3
    code3, pmr = run(capsys, ["generate", "partition-matroid-rank", "2", "1"])
    assert code3 == 0
    assert pmr["artifact"]["n"] == 3


def test_generate_errors():
    assert main(["generate", "no-such-thing"]) == 1
    assert main(["generate", "wheel"]) == 1
    assert main(["generate", "wheel", "x"]) == 1


def test_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check", str(bad)]) == 1
    assert main(["check", str(tmp_path / "missing.json")]) == 1
    empty = tmp_path / "obj.json"
    empty.write_text("{}")
    assert main(["check", str(empty)]) == 1


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("f.json", json.dumps({"n": 1, "values": ["0", "1/0"]}), "bad input object"),
        ("g.json", json.dumps({"n": 2, "edges": [[0, 1, "3/0"]]}), "bad input object"),
        ("g.csv", "0,1,2/0\n", "bad CSV edge list"),
    ],
    ids=["values", "edge-weight", "csv-weight"],
)
def test_zero_denominator_is_bad_input(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main(["check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert message in captured.err


def test_unwritable_output_is_an_io_error(capsys, tmp_path, triangle_path):
    target = tmp_path / "missing_dir" / "out.json"
    assert main(["check", triangle_path, "--output", str(target)]) == 1
    captured = capsys.readouterr()
    assert f"cannot write {target}" in captured.err and captured.out == ""


def test_csv_input(capsys, tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,1,1\n1,2,1\n0,2,1\n")
    code, report = run(capsys, ["graph", str(path), "--report", "cuts"])
    assert code == 0
    assert report["cuts"]["max_cut"] == "2"


def test_size_refusal_and_ack(capsys, tmp_path):
    f = SetFunction.zero(GroundSet(9))
    path = write_json(tmp_path / "f.json", f.to_json_dict())
    assert main(["check", path]) == 2
    assert main(["check", path, "--max-n", "9"]) == 2
    code, report = run(
        capsys,
        ["check", path, "--max-n", "9", "--i-know-this-is-exponential"],
    )
    assert code == 0
    assert report["n"] == 9


@pytest.mark.parametrize(
    "argv, n, message",
    [
        (["check"], 16, "property battery refused at n=16 (cap 8); raise --max-n if you accept the exponential cost"),
        (["decompose"], 11, "decomposition refused at n=11 (cap 10)"),
    ],
    ids=["check", "decompose"],
)
def test_refused_graph_builds_no_cut_table(capsys, tmp_path, monkeypatch, argv, n, message):
    from setdecomp import graphs

    path = write_json(tmp_path / "g.json", complete(n).to_json_dict())
    calls = []
    real = graphs.cut_function
    monkeypatch.setattr(graphs, "cut_function", lambda g: calls.append(g) or real(g))
    assert main([*argv, path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == []


@pytest.mark.parametrize("max_n", ["0", "-1", "17"])
def test_check_max_n_outside_the_input_cap_is_a_usage_error(capsys, triangle_path, max_n):
    expect_usage_error(capsys, ["check", triangle_path, "--max-n", max_n, "--i-know-this-is-exponential"])


def test_check_reports_every_level_at_n9(capsys, tmp_path):
    # 6-alternating but not 7-alternating: every level up to n = 9 is
    # decided and the first violation sits at k = 7
    f = make_ell_not_ell_plus_one(GroundSet(9), 6, 0b1111111)
    path = write_json(tmp_path / "f.json", f.to_json_dict())
    argv = ["check", path, "--max-n", "9", "--i-know-this-is-exponential"]
    code, report = run(capsys, argv)
    assert code == 0
    profile = report["alternating_profile"]
    assert [entry["k"] for entry in profile] == list(range(1, 10))
    assert all("skipped" not in entry for entry in profile)
    assert [entry["strong"] for entry in profile] == [k <= 6 for k in range(1, 10)]
    assert profile[6]["weak"] is False and report["weakly_infinite_alternating"] is False
    witness = profile[6]["witness"]
    assert len(witness["tuple"]) == 7
    value = alt_sum(f, witness["A0"], witness["tuple"])
    assert value > 0 and format_rational(value) == witness["value"]
    # identical invocations give byte-identical output
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(out1)]) == 0
    assert main(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text()) == report


def test_check_at_n11_matches_the_oracles(capsys, tmp_path, rng):
    # above 10 elements the interval sums come in blocks split by the top
    # element; alpha mixes signs and denominators, so several levels fail
    alpha = [Fraction(rng.choice((0, 0, 1, 2, 3, -1)), rng.randint(1, 3)) for _ in range(2**11)]
    alpha[0] = Fraction(0)
    f = from_coefficients(CoverageCoefficients(GroundSet(11), tuple(alpha)))
    path = write_json(tmp_path / "f.json", f.to_json_dict())
    code, report = run(capsys, ["check", path, "--max-n", "11", "--i-know-this-is-exponential"])
    assert code == 0
    found = weak_violations_by_pairs(f)
    assert any(found[k] is not None for k in (1, 2)) and any(found[k] is not None for k in range(5, 12))
    strong = None
    for entry, k in zip(report["alternating_profile"], range(1, 12)):
        strong = strong or found[k]
        assert entry["weak"] == (found[k] is None) and entry["strong"] == (strong is None)
        assert entry.get("witness") == (strong and strong.to_json_dict())
    assert report["weakly_infinite_alternating"] == all(w is None for w in found[2:])
    coeffs = to_coefficients(f)
    lowest = coeffs.min_coefficient()
    assert report["infinite_alternating"] == (lowest >= 0)
    assert report["coverage"] == {
        "nonnegative": lowest >= 0,
        "support_size": len(coeffs.support()),
        "min_coefficient": format_rational(lowest),
    }
    for name, predicate in (
        ("submodular", is_submodular),
        ("increasing", is_increasing),
        ("decreasing", is_decreasing),
        ("modular", is_modular),
    ):
        holds, witness = predicate(SetFunction.from_ints(f.ground, f.den, f.nums))
        assert report[name]["holds"] == holds
        if name != "modular" and witness:
            assert tuple(report[name]["witness"].values()) == witness


def test_check_refuses_a_spoiled_coefficient_table(tmp_path, monkeypatch):
    # check reads the coefficients off the interval sums and still rebuilds f from them
    f = make_ell_not_ell_plus_one(GroundSet(4), 2, 0b111)
    path = write_json(tmp_path / "f.json", f.to_json_dict())
    weak_pass = alternating._weak_pass

    def spoiled(g):
        found, alpha = weak_pass(g)
        alpha[0b101] += 1
        return found, alpha

    monkeypatch.setattr(alternating, "_weak_pass", spoiled)
    with pytest.raises(ExactnessError, match="round-trip"):
        main(["check", path, "--output", str(tmp_path / "out.json")])


def test_probe_exit_codes(capsys, tmp_path):
    path = write_json(tmp_path / "k3.json", complete(3).to_json_dict())
    code, report = run(capsys, ["probe", path, "--trials", "3", "--seed", "1"])
    assert code == 0
    assert report["probe"]["violations"] == []


def test_byte_identical_reruns(tmp_path, triangle_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["check", triangle_path, "--output", str(out1)]) == 0
    assert main(["check", triangle_path, "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_global_flags_before_subcommand(tmp_path, triangle_path):
    out = tmp_path / "c.json"
    assert main(["--output", str(out), "check", triangle_path]) == 0
    assert json.loads(out.read_text())["n"] == 3


# -- options only where they act ------------------------------------------


def expect_usage_error(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "IN", "--kind", "foo"],
        ["check", "IN", "--seed", "1"],
        ["--seed", "1", "probe", "IN"],
        ["decompose", "IN", "--max-n", "11"],
        ["graph", "IN", "--i-know-this-is-exponential"],
        ["probe", "IN", "--max-n", "9"],
        ["no-such-command", "IN"],
        [],
    ],
)
def test_usage_errors_exit_1(capsys, triangle_path, argv):
    expect_usage_error(capsys, [triangle_path if a == "IN" else a for a in argv])


@pytest.mark.parametrize("c", ["abc", "-1", "1/0", "-1/2"])
def test_decompose_rejects_bad_c(capsys, triangle_path, c):
    expect_usage_error(capsys, ["decompose", triangle_path, "--c", c])


def test_decompose_accepts_rational_c(capsys, triangle_path):
    code, report = run(capsys, ["decompose", triangle_path, "--c", "5/2"])
    assert code == 0 and report["c"] == "5/2"


@pytest.mark.parametrize(
    "flags",
    [[], ["--kind", "diff"], ["--c", "2"], ["--kind", "coverage-diff"],
     ["--kind", "weakly-canonical"]],
)
def test_decompose_refuses_n11(capsys, tmp_path, flags):
    path = write_json(tmp_path / "f.json", SetFunction.zero(GroundSet(11)).to_json_dict())
    assert main(["decompose", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "cap 10" in captured.err


def test_probe_refuses_n9(capsys, tmp_path):
    path = write_json(tmp_path / "k9.json", complete(9).to_json_dict())
    assert main(["probe", path, "--trials", "1"]) == 2
    assert "cap 8" in capsys.readouterr().err


def test_probe_rejects_negative_trials(capsys, triangle_path):
    expect_usage_error(capsys, ["probe", triangle_path, "--trials", "-3"])


def test_conjecture_probe_rejects_negative_trials():
    from setdecomp.graphs import conjecture_probe

    with pytest.raises(ValueError, match="trials"):
        conjecture_probe(complete(3), -3, 0)


def test_float_vertex_is_a_bad_input(capsys, tmp_path):
    path = write_json(tmp_path / "g.json", {"n": 3, "edges": [[0.5, 1, "1"], [1, 2, "1"]]})
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert "bad input object" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "payload",
    [
        {"n": True, "values": ["0", "1"]},
        {"n": 2.9, "values": ["0", "1", "1", "2"]},
        {"n": "2", "values": ["0", "1", "1", "2"]},
        {"n": 1, "values": [False, True]},
        {"n": 2, "edges": [[0, 1, True]]},
        {"n": 2, "values": "0123"},
        {"n": 2, "values": {"0": "9", "1": "9", "2": "9", "3": "9"}},
    ],
)
def test_bool_float_or_string_numbers_are_bad_input(capsys, tmp_path, payload):
    # a JSON true is not the number 1, a ground size must be an int, and
    # values must be a list
    path = write_json(tmp_path / "f.json", payload)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad input object" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("vertex", [100000, -1])
def test_hyperedge_vertex_out_of_range_is_bad_input(capsys, tmp_path, vertex):
    payload = {"n": 3, "hyperedges": [{"vertices": [0, vertex], "weight": "1"}]}
    path = write_json(tmp_path / "h.json", payload)
    assert main(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad input object" in captured.err and "Traceback" not in captured.err
    assert f"vertex {vertex} " in captured.err


def test_main_uses_the_parser_built_at_import(capsys, monkeypatch, triangle_path):
    from setdecomp import cli

    def boom():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", boom)
    code, report = run(capsys, ["check", triangle_path])
    assert code == 0 and report["n"] == 3
    assert main(["check", triangle_path, "--seed", "1"]) == 1


GENERATE_CASES = {
    "wheel": ["5"],
    "complete": ["4"],
    "complete-minus-edge": ["5"],
    "cycle": ["5"],
    "hyperedge": ["3"],
    "cex-sum": ["2"],
    "cex-diff": ["3"],
    "lnl": ["2", "0b111", "4"],
    "partition-matroid-rank": ["2", "1"],
}


def test_generate_cases_cover_every_generator():
    from setdecomp.cli import GENERATORS

    assert set(GENERATE_CASES) == set(GENERATORS)


@pytest.mark.parametrize("name", sorted(GENERATE_CASES))
def test_generate_feeds_back_into_check(capsys, tmp_path, name):
    out = tmp_path / f"{name}.json"
    params = GENERATE_CASES[name]
    assert main(["generate", name, *params, "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["generator"] == {"name": name, "params": params}
    code, report = run(capsys, ["check", str(out)])
    assert code == 0 and report["n"] >= 1
    if "edges" in payload["artifact"]:
        code, report = run(capsys, ["graph", str(out), "--report", "cuts"])
        assert code == 0 and "max_cut" in report["cuts"]


@pytest.mark.parametrize(
    "argv",
    [["generate", "no-such-thing", "3"], ["generate", "cycle"], ["generate", "lnl", "2"],
     ["generate", "wheel", "5", "6"], ["generate", "cycle", "2"]],
)
def test_generate_bad_name_or_parameters(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


@pytest.mark.parametrize("sizes", [["20000000"], ["20000000", "-19999990"]], ids=["huge", "huge-and-negative"])
def test_partition_matroid_rank_refuses_oversized_classes_before_building_them(capsys, sizes):
    # a 20000000-element class is a 2.5 MB mask if it is built
    tracemalloc.start()
    try:
        assert main(["generate", "partition-matroid-rank", *sizes]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "bad generator parameters" in capsys.readouterr().err


def test_readme_command_lines_parse():
    import re
    import shlex
    from pathlib import Path

    from setdecomp.cli import PARSER

    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    lines = [
        line for block in blocks for line in block.splitlines()
        if line.startswith("setdecomp ")
    ]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line)[1:]
        assert PARSER.parse_args(argv).command == argv[0], line


def test_graph_report_plus_norm_on_the_n9_graph(capsys, tmp_path):
    # its full sum LP pivoted for minutes; in clique coordinates it certifies
    edges = [[0, 1, "3"], [0, 5, "3/4"], [0, 6, "1/2"], [1, 2, "1"], [1, 7, "3/2"], [1, 8, "1/3"],
             [2, 5, "1"], [2, 7, "6"], [3, 4, "4/3"], [3, 6, "7/4"], [4, 6, "1"], [6, 8, "4"]]
    path = write_json(tmp_path / "g9.json", {"n": 9, "edges": edges})
    code, report = run(capsys, ["graph", path, "--report", "all"])
    assert code == 0
    assert report["bounds"]["plus_norm"] == "121/6"
