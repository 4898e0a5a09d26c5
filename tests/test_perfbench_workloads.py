"""The benchmark's workloads still run against the package.

perfbench/workloads.py builds its inputs through the package API
(`build_structure`, `save_structure`, `negate_socle_entry`,
`structio.load_structure`, `B.witness`, `B.presentation`) and checks the
output of every operation.  A change of that API would only show when the
benchmark runs; this test runs one pass of each workload, every operation
with its own check, instead.  The benchmark files are loaded read-only, by
path.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import qci
import qci.cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
NAMES = ("verify-gfp", "verify-cyclo", "scan-gfp", "construct-4096")


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules as they are created
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_workloads_are_the_four_benchmarked(monkeypatch):
    assert tuple(load_workloads(monkeypatch).WORKLOADS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_of_the_workload_checks_out(monkeypatch, tmp_path, name):
    plan = load_workloads(monkeypatch).WORKLOADS[name](qci, 1, str(tmp_path))
    ops = plan.ops(0)
    assert ops
    labels = {op.label for op in ops}
    assert {plan.small, plan.large} <= labels
    for op in ops:
        problem = op.check(op.run())
        assert problem is None, (op.label, op.key, problem)
