"""The traced benchmark's tracer still fits the package.

perfbench/layers.py patches qci functions and methods by name.  Renaming or
deleting one of them would only show when the benchmark runs with
`--trace 1`; this test makes it fail here instead.  The benchmark files are
loaded read-only, by path.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import qci
import qci.cli
import qci.demos
from qci.algebra import Presentation
from qci.scalars import Scalar

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(modules):
    owners = list(modules.values()) + [Scalar, Presentation]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_tracer_runs_example_and_restores_every_name():
    layers = load_layers()
    modules = layers.qci_modules(qci)
    before = namespaces(modules)
    tracer = layers.LayerTracer(modules)
    out = io.StringIO()
    with tracer, contextlib.redirect_stdout(out):
        assert qci.cli.verify_axioms is not before[id(modules["cli"])][1]["verify_axioms"]
        code = qci.cli.run(["example", "6.9"])
    assert code == 0
    assert "all checks passed" in out.getvalue()
    metrics = tracer.metrics()
    assert metrics["verify.axioms_s"] > 0
    assert metrics["algebra.bracket_count"] > 0
    for owner, names in before.values():
        for key, value in names.items():
            assert vars(owner)[key] is value, f"{owner!r}.{key} not restored"
