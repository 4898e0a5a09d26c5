"""Command-line front end.

Every subcommand is a thin composition of library calls; no mathematics
lives in this module.  Exit codes: 0 success (a "No" decision is a
successful answer), 1 input or parse error, or standard output closed
before the command finished (as by `| head`), 2 verification failure,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from math import lcm

from .algebra import Presentation, monomial_name, q_grid
from .builder import (
    BfaStructure,
    Witness,
    build_structure,
    check_witness,
    decide,
    solve_c,
    vector_of,
)
from .demos import EXAMPLE_IDS, default_field, example_presentation, example_witness
from .errors import (
    CrossCheckError,
    FileSemanticError,
    FileSyntaxError,
    QciError,
    WitnessInvalidError,
)
from .permutations import Permutation, enumerate_compatible
from .scalars import Scalar, multiplicative_order, parse_field_descriptor
from .structio import load_presentation, load_structure, open_output, save_structure
from .verify import (
    is_hopf_comultiplication,
    primitive_space_dim,
    verify_axioms,
    verify_derived,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # do not let argparse pick exit codes
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every subcommand, built once per process: parsing keeps
    no state in it, so each run shares it."""
    parser = _Parser(prog="qci", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("validate", help="check a presentation file")
    p.add_argument("file")

    p = sub.add_parser("analyze", help="Nakayama data and compatible permutations")
    p.add_argument("file")

    p = sub.add_parser("search", help="list compatible involutions")
    p.add_argument("file")
    p.add_argument("--all-permutations", action="store_true")

    p = sub.add_parser("decide", help="decide existence of a structure")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build a structure file")
    p.add_argument("file")
    p.add_argument("--pi", help='permutation images, e.g. "[1,3,2]"')
    p.add_argument("--c", help="comma-separated scalars, one per generator")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="run all checks on a structure file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("example", help="reproduce a built-in example")
    p.add_argument("id", choices=list(EXAMPLE_IDS))
    p.add_argument("--b", help="scalar literal for the unit b")
    p.add_argument("--field", help="rational | prime:<p> | cyclotomic:<m>")
    p.add_argument("--out", help="write the structure file here")

    p = sub.add_parser(
        "enumerate", help="scan a q-grid over a prime field, one CSV row as each is decided"
    )
    p.add_argument("--field", required=True, help="prime:<p>")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True, help="comma-separated exponents")
    p.add_argument(
        "--out",
        help="write CSV here instead of stdout; if an error stops the scan, "
        "the rows written so far stay",
    )
    p.add_argument("--allow-large", action="store_true")

    return parser


def entry() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 1
        handler = _HANDLERS[args.subcommand]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else 1
    except (FileSyntaxError, FileSemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CrossCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except QciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _print_presentation(P: Presentation) -> None:
    print(f"field: {P.field.describe()}")
    print(f"n: {P.n}")
    print(f"a: {list(P.a)}")
    print(f"dimension: {P.dim}")
    rows = ["[" + ", ".join(str(P.q[i][j]) for j in range(P.n)) + "]" for i in range(P.n)]
    print("q: [" + ", ".join(rows) + "]")


def _print_permutations(perms, indent: str = "") -> None:
    for pi in perms:
        flag = "  (involution)" if pi.is_involution() else ""
        print(f"{indent}{pi}{flag}")


def _print_witness(w: Witness) -> None:
    print(f"witness pi: {w.pi}")
    print(f"witness c: ({', '.join(str(x) for x in w.c)})")


def _cmd_validate(args) -> int:
    P = load_presentation(args.file)
    _print_presentation(P)
    print("valid")
    return 0


def _cmd_analyze(args) -> int:
    P = load_presentation(args.file)
    _print_presentation(P)
    hs = P.h_generators()
    for i, h in enumerate(hs, start=1):
        print(f"h_{i}: {h}")
    print(f"symmetric: {'yes' if P.is_symmetric() else 'no'}")
    orders = [multiplicative_order(h) for h in hs]
    if any(o is None for o in orders):
        print("nakayama order: infinite")
    else:
        print(f"nakayama order: {lcm(*orders) if orders else 1}")
    perms = enumerate_compatible(P, involutions_only=False)
    print(f"compatible permutations: {len(perms)}")
    _print_permutations(perms, indent="  ")
    return 0


def _cmd_search(args) -> int:
    P = load_presentation(args.file)
    if args.all_permutations:
        perms = enumerate_compatible(P, involutions_only=False)
        _print_permutations(perms)
    else:
        perms = enumerate_compatible(P, involutions_only=True)
        for pi in perms:
            print(str(pi))
    if not perms:
        print("none")
    return 0


def _cmd_decide(args) -> int:
    P = load_presentation(args.file)
    report = decide(P)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        return 0
    print(f"decision: {'Yes' if report.exists else 'No'}")
    print(f"regime: {report.regime}")
    if report.reason is not None:
        print(f"reason: {report.reason}")
    for rec in report.involutions:
        print(
            f"  pi = {rec.pi}: intrinsic {'yes' if rec.intrinsic else 'no'}, "
            f"scalars {'found' if rec.solver_found else 'none'}"
        )
    if report.witness is not None:
        _print_witness(report.witness)
    return 0


def _witness_from_args(P: Presentation, args):
    if args.pi is None and args.c is None:
        report = decide(P)
        if not report.exists:
            return None, report.reason
        return report.witness, None
    if args.pi is None:
        raise UsageError("--c requires --pi")
    try:
        pi = Permutation.parse(args.pi)
    except ValueError as exc:
        raise UsageError(f"bad --pi: {exc}") from None
    if args.c is None:
        if not P.nakayama_is_involution():
            return None, "nakayama-not-involutive"
        c = solve_c(P, pi)
        if c is None:
            return None, f"no scalars exist for pi = {pi}"
        return Witness(pi, c), None
    c = tuple(P.field.parse(part) for part in args.c.split(","))
    witness = Witness(pi, c)
    check_witness(P, witness)
    return witness, None


def _cmd_construct(args) -> int:
    P = load_presentation(args.file)
    try:
        witness, reason = _witness_from_args(P, args)
    except WitnessInvalidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if witness is None:
        print(f"no structure exists: {reason}")
        return 0
    B = build_structure(P, witness)
    save_structure(B, args.out)
    _print_witness(witness)
    print(f"wrote {args.out}")
    return 0


def _structure_tables(B: BfaStructure) -> str:
    P = B.presentation
    terms = [
        f"({Scalar(P.field, c)})*{monomial_name(vector_of(P, u))}(x)"
        f"{monomial_name(vector_of(P, w))}"
        for u, w, c in B.row(P.dim - 1)
    ]
    lines = [f"Delta({monomial_name(P.top)}) = " + " + ".join(terms)]
    for v, img, c in list(zip(P.basis(), B.s_img, B.s_coef))[1:]:
        image = {vector_of(P, img): Scalar(P.field, c)}
        lines.append(f"S({monomial_name(v)}) = " + P.element_to_string(image))
    return "\n".join(lines)


def _run_verification(B: BfaStructure, as_json: bool) -> int:
    axioms = verify_axioms(B)
    derived = verify_derived(B)
    hopf = is_hopf_comultiplication(B)
    prim = primitive_space_dim(B)
    ok = axioms.all_passed and derived.all_passed
    if as_json:
        print(
            json.dumps(
                {
                    "all_passed": ok,
                    "axioms": axioms.to_json(),
                    "derived": derived.to_json(),
                    "hopf_comultiplication": hopf,
                    "primitive_dim": prim,
                },
                indent=2,
            )
        )
    else:
        print("axiom checks:")
        print(axioms.format_text())
        print("derived checks:")
        print(derived.format_text())
        print(f"hopf comultiplication: {'yes' if hopf else 'no'}")
        print(f"primitive dimension: {prim}")
        print(f"result: {'all checks passed' if ok else 'FAILED'}")
    return 0 if ok else 2


def _cmd_verify(args) -> int:
    B = load_structure(args.file)
    return _run_verification(B, args.json)


def _cmd_example(args) -> int:
    field = default_field() if args.field is None else parse_field_descriptor(args.field)
    P = example_presentation(args.id, field, args.b)
    witness = example_witness(args.id, P)
    B = build_structure(P, witness)
    print(f"example {args.id} over {field.describe()}")
    _print_witness(witness)
    print(_structure_tables(B))
    if args.out:
        save_structure(B, args.out)
        print(f"wrote {args.out}")
    return _run_verification(B, as_json=False)


ENUMERATE_PRIME_CAP = 13


def _cmd_enumerate(args) -> int:
    field = parse_field_descriptor(args.field)
    if field.kind != "prime":
        raise UsageError("enumerate needs a prime field, e.g. --field prime:5")
    if field.p > ENUMERATE_PRIME_CAP and not args.allow_large:
        raise UsageError(
            f"p = {field.p} exceeds the default cap {ENUMERATE_PRIME_CAP}; "
            "pass --allow-large to proceed"
        )
    n = args.n
    if n not in (2, 3):
        raise UsageError("enumerate supports n = 2 or 3")
    try:
        a = [int(x) for x in args.a.split(",")]
    except ValueError:
        raise UsageError(f"bad exponent list {args.a!r}") from None
    if len(a) != n or any(x < 2 for x in a):
        raise UsageError("--a needs one exponent >= 2 per generator")

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    header = [f"q{i + 1}{j + 1}" for i, j in pairs]
    header += [f"h{i + 1}" for i in range(n)]
    header += ["n_squared_is_id", "n_involutions", "decision", "witness_pi", "regime"]

    @functools.cache
    def text(value) -> str:
        """The text of a payload, formatted once per scan."""
        return str(Scalar(field, value))

    def scan(writer) -> int:
        writer.writerow(header)
        count = 0
        for P in q_grid(field, a):
            report = decide(P)
            row = [text(P.q_values[i][j]) for i, j in pairs]
            row += map(text, P.h_values())
            row += [
                "yes" if report.nakayama_involutive else "no",
                str(report.n_involutions),
                "yes" if report.exists else "no",
                str(report.witness.pi) if report.witness is not None else "",
                report.regime,
            ]
            writer.writerow(row)
            count += 1
        return count

    if args.out:
        with open_output(args.out, newline="") as fh:
            count = scan(csv.writer(fh))
        print(f"wrote {args.out} ({count} rows)")
    else:
        scan(csv.writer(sys.stdout))
    return 0


_HANDLERS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "search": _cmd_search,
    "decide": _cmd_decide,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "example": _cmd_example,
    "enumerate": _cmd_enumerate,
}
