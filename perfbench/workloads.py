"""The four benchmark workloads: seeded inputs, CLI operations and their checks.

Each workload is a function `(qci, seed, workdir) -> Plan`.  It draws its
inputs from `random.Random(seed)`, writes the presentation and structure
files the CLI reads into `workdir`, and returns the operations of one timed
pass.  Every operation is a real `qci.cli.run(argv)` call (or, for
`construct-4096`, the `load_structure` that reads its output back) with a
check of what it printed or wrote.

Seeded workloads draw several inputs per rung, so that a run's figures
average over several q matrices rather than rest on one: the cheap rungs run
every draw in each pass, the costly ones rotate, pass k using draw k mod
`DRAWS`.  An operation's `key` names its input, and the benchmark averages
the median time of each input.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

DRAWS = 3
SMALL_DRAWS = 6  # d64 draws of verify-gfp, all verified in every pass

# Golden counts of `qci enumerate`, (rows, "yes" decisions), for each argv.
SCAN_SMALL = ["--field", "prime:13", "--n", "3", "--a", "3,3,3"]
SCAN_LARGE = ["--field", "prime:29", "--n", "3", "--a", "4,4,4", "--allow-large"]
SCAN_WARMUP = ["--field", "prime:7", "--n", "3", "--a", "2,2,2"]
SCAN_GOLDEN = {
    tuple(SCAN_SMALL): (1728, 120),
    tuple(SCAN_LARGE): (21952, 112),
    tuple(SCAN_WARMUP): (216, 24),
}


@dataclass
class Op:
    """One timed operation.

    `label` names the metric its time feeds and `key` the input it runs on
    (the same label and key on several ops gives several samples of one
    input); `run()` does the work and `check(result)` returns None when the
    output is correct, else a description.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    key: str = ""


@dataclass
class Plan:
    warmup: list
    ops: Callable[[int], list]  # the ops of pass k; they depend on k mod DRAWS only
    small: str  # label of the cheapest step, reported as small_s
    large: str  # label of the costliest step, reported as large_s
    derived: Callable[[dict], dict] = lambda medians: {}


def cli(qci, argv):
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qci.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _exit(result, want: int) -> str | None:
    code, _, err = result
    if code != want:
        return f"exit code {code}, expected {want}; stderr: {err.strip()[-300:]}"
    return None


def _verified(result) -> str | None:
    """`qci verify --json` passed every check."""
    bad = _exit(result, 0)
    if bad:
        return bad
    report = json.loads(result[1])
    if report["all_passed"] is not True:
        failing = [c["name"] for part in ("axioms", "derived")
                   for c in report[part]["checks"] if not c["passed"]]
        return f"all_passed is not true; failing: {failing}"
    return None


def _rejected_at(v):
    """Check that `qci verify --json` exits 2 with antipode-definition failing at v."""
    def check(result):
        bad = _exit(result, 2)
        if bad:
            return bad
        report = json.loads(result[1])
        checks = {c["name"]: c for c in report["axioms"]["checks"]}
        definition = checks["antipode-definition"]
        if report["all_passed"] or definition["passed"]:
            return "tampered structure was not rejected by antipode-definition"
        if definition["detail"]["v"] != list(v):
            return f"antipode-definition failed at {definition['detail']['v']}, not {list(v)}"
        return None
    return check


def _example_passed(result) -> str | None:
    bad = _exit(result, 0)
    if bad:
        return bad
    if not result[1].rstrip().endswith("result: all checks passed"):
        return "example did not end with 'result: all checks passed'"
    return None


def verify(qci, path, label) -> Op:
    return Op(label, lambda: cli(qci, ["verify", path, "--json"]), _verified, key=path)


# The accepted draw of each search: (shape, rng state) -> (indices, rng state after).
_ACCEPTED = {}


def draw_yes(qci, field, a, rng, units, accept=lambda ks: True):
    """A presentation with random q_ij from `units` on which decide says Yes.

    `units` lists (q, q^-1) pairs; q_ij for i < j is drawn from it and q_ji is
    its inverse.  Draws are rejected until `accept(indices)` holds and decide
    finds a witness.  Returns (presentation, witness).

    How many draws a seed rejects varies widely (from 1 to about 500 for
    (8,8,8,8) over GF(7)), so the search runs once per process: a repeated
    call from the same rng state decides only the accepted draw again and
    leaves the rng where the search left it.
    """
    n = len(a)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def presentation(ks):
        q = [[field.one] * n for _ in range(n)]
        for (i, j), k in zip(pairs, ks):
            q[i][j], q[j][i] = units[k]
        return qci.Presentation(field, a, q)

    key = (tuple(a), len(units), rng.getstate())
    if key in _ACCEPTED:
        ks, state = _ACCEPTED[key]
        rng.setstate(state)
        P = presentation(ks)
        return P, qci.decide(P).witness
    while True:
        ks = [rng.randrange(len(units)) for _ in pairs]
        if not accept(ks):
            continue
        P = presentation(ks)
        report = qci.decide(P)
        if report.exists:
            _ACCEPTED[key] = ks, rng.getstate()
            return P, report.witness


def _gf7_units(qci):
    field = qci.make_field("prime", 7)
    return field, [(field.from_int(k), field.from_int(k).inverse()) for k in range(1, 7)]


def _save_structures(qci, rng, field, units, shapes, workdir, tag, draws=DRAWS,
                     accept=lambda ks: True):
    """`draws` built structures per shape: {shape: [(path, structure), ...]}."""
    out = {}
    for a in shapes:
        files = []
        for d in range(draws):
            P, w = draw_yes(qci, field, a, rng, units, accept)
            B = qci.build_structure(P, w)
            path = os.path.join(workdir, f"{tag}-d{P.dim}-{d}.json")
            qci.save_structure(B, path)
            files.append((path, B))
        out[a] = files
    return out


def verify_gfp(qci, seed, workdir) -> Plan:
    rng = random.Random(seed)
    field, units = _gf7_units(qci)
    ladder = ((4, 4, 4), (4, 4, 4, 2), (4, 4, 4, 4))
    built = _save_structures(qci, rng, field, units, ladder[:1], workdir, "gfp",
                             draws=SMALL_DRAWS)
    built.update(_save_structures(qci, rng, field, units, ladder[1:], workdir, "gfp"))
    negatives = []
    for d, (_, B) in enumerate(built[ladder[0]][:DRAWS]):
        P = B.presentation
        middle = [v for v in P.basis() if v not in (P.zero_vec, P.top)]
        v = rng.choice(middle)
        path = os.path.join(workdir, f"gfp-negative-{d}.json")
        qci.save_structure(qci.negate_socle_entry(B, v), path)
        negatives.append((path, v))

    def ops(k):
        d = k % DRAWS
        out = [verify(qci, path, "verify_d64_s") for path, _ in built[ladder[0]]]
        out += [verify(qci, built[a][d][0], f"verify_d{math.prod(a)}_s") for a in ladder[1:]]
        path, v = negatives[d]
        out.append(Op("negative_d64_s", lambda: cli(qci, ["verify", path, "--json"]),
                      _rejected_at(v), key=path))
        return out

    return Plan(warmup=[verify(qci, built[ladder[0]][0][0], "warmup")], ops=ops,
                small="verify_d64_s", large="verify_d256_s")


def verify_cyclo(qci, seed, workdir) -> Plan:
    rng = random.Random(seed)
    field = qci.make_field("cyclotomic", 8)
    units = [(field.zeta_power(k), field.zeta_power(-k)) for k in range(8)]
    # at least one q_ij outside {1, -1}, so the cyclotomic arithmetic is exercised
    def irrational(ks):
        return any(k % 4 for k in ks)

    built = _save_structures(qci, rng, field, units, ((4, 2, 4),), workdir, "cyclo",
                             accept=irrational)
    built.update(_save_structures(qci, rng, field, units, ((4, 4, 4),), workdir, "cyclo",
                                  draws=2 * DRAWS, accept=irrational))
    examples = [Op("example_s", lambda i=i: cli(qci, ["example", i]), _example_passed, key=i)
                for i in ("6.9", "6.10")]

    def ops(k):
        d = k % DRAWS
        return examples * 3 + [verify(qci, built[(4, 2, 4)][d][0], "verify_d32_s")] + [
            verify(qci, path, "verify_d64_s") for path, _ in built[(4, 4, 4)][2 * d: 2 * d + 2]]

    return Plan(warmup=examples, ops=ops, small="example_s", large="verify_d64_s")


def scan_gfp(qci, seed, workdir) -> Plan:
    """The q grid is exhaustive, so the seed is not used."""

    def scan(argv, label):
        path = os.path.join(workdir, label + ".csv")
        rows, yes = SCAN_GOLDEN[tuple(argv)]

        def check(result):
            bad = _exit(result, 0)
            if bad:
                return bad
            with open(path, newline="", encoding="utf-8") as fh:
                table = list(csv.reader(fh))
            column = table[0].index("decision")
            got = (len(table) - 1, sum(row[column] == "yes" for row in table[1:]))
            return None if got == (rows, yes) else f"(rows, yes) = {got}, expected {(rows, yes)}"

        return Op(label, lambda: cli(qci, ["enumerate", *argv, "--out", path]), check,
                  key=" ".join(argv))

    large = scan(SCAN_LARGE, "enumerate_p29_s")
    return Plan(warmup=[scan(SCAN_WARMUP, "warmup")],
                ops=lambda k: [scan(SCAN_SMALL, "enumerate_p13_s"), large],
                small="enumerate_p13_s", large="enumerate_p29_s",
                derived=lambda med: {"decide_per_s": SCAN_GOLDEN[tuple(SCAN_LARGE)][0]
                                     / med["enumerate_p29_s"]})


def construct_4096(qci, seed, workdir) -> Plan:
    rng = random.Random(seed)
    field, units = _gf7_units(qci)

    def pair(a, tag):
        """construct + load ops for one drawn presentation of shape a."""
        P, witness = draw_yes(qci, field, a, rng, units)
        pres = os.path.join(workdir, f"pres-{tag}.json")
        out = os.path.join(workdir, f"struct-{tag}.json")
        qci.save_presentation(P, pres)

        def loaded(B):
            return None if B.witness == witness else (
                f"loaded witness {B.witness} differs from decide's {witness}")

        return [
            Op("construct_d4096_s", lambda: cli(qci, ["construct", pres, "--out", out]),
               lambda result: _exit(result, 0), key=pres),
            Op("load_d4096_s", lambda: qci.structio.load_structure(out), loaded, key=out),
        ]

    shapes = ((64, 64), (16, 16, 16), (8, 8, 8, 8))
    draws = [[pair(a, f"{len(a)}-{d}") for a in shapes] for d in range(DRAWS)]
    warmup = pair((4, 4), "warmup")
    return Plan(warmup=warmup, ops=lambda k: [op for ops in draws[k % DRAWS] for op in ops],
                small="load_d4096_s", large="construct_d4096_s")


WORKLOADS = {
    "verify-gfp": verify_gfp,
    "verify-cyclo": verify_cyclo,
    "scan-gfp": scan_gfp,
    "construct-4096": construct_4096,
}
