"""Each demo, run in-process, prints exactly its recorded stdout in tests/demo_stdout."""

import runpy
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))


def test_every_demo_has_a_recorded_stdout():
    assert [d.stem for d in DEMOS] == sorted(p.stem for p in (TESTS / "demo_stdout").glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_its_recorded_stdout(capsys, demo):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == (TESTS / "demo_stdout" / f"{demo.stem}.txt").read_text(encoding="utf-8")
