"""Smoke test of the benchmark: every workload at a tiny shape.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import run

SPEC = run.load_spec()
NAMES = [workload["name"] for workload in SPEC["workloads"]]
sys.path.insert(0, str(run.ROOT / "src"))

from spans import Tracer  # noqa: E402  (needs the library path above)
from workloads import WORKLOADS, Fig4Panel  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, capsys):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        tiny=True,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for metric, unit in expected.items():
        assert (metric, unit) in printed


def _tamper(name: str, outputs: dict) -> None:
    if name == "dense-federated":
        # One ulp on one entry: only the bit-identity gate can see it.
        outputs["raw"] = outputs["raw"].copy()
        outputs["raw"][0] = np.nextafter(outputs["raw"][0], np.inf)
    else:
        outputs["enhanced"] = outputs["raw"].copy()


@pytest.mark.parametrize("name", NAMES)
def test_tampered_estimate_trips_the_gate(name, tmp_path):
    workload = WORKLOADS[name](3, tmp_path, tiny=True)
    result = workload.run_round(0, Tracer(enabled=False))
    assert workload.check(result) == []
    _tamper(name, result.outputs)
    assert workload.check(result) != []


def test_tampered_fig4_panel_trips_the_gate():
    panel = Fig4Panel(3, tiny=True)
    result = panel.run()
    assert panel.check(result) == []
    result.outputs["l1"] = result.outputs["baseline"].copy()
    assert panel.check(result) != []


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", NAMES[0]]) == 2
    assert capsys.readouterr().out == ""
