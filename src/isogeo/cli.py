"""Command-line entry point.

One subcommand per workflow: scenario | flat-verify | compare | weights |
dirichlet | enumerate.  Human-readable reports go to stdout; machine
output (CSV or JSON, chosen by --format) is written to --out.  Exit codes:
0 success / all checks pass, 1 at least one verification failed, 2 usage
or input error.  Machine output is deterministic: identical invocations
produce byte-identical bytes, and rationals are printed as num/den, never
decimalized.

Each subcommand prints its report and returns its exit code with what --out
holds, and main writes it.  A table is CSV (a header line, then rows) or a
JSON list of objects keyed by the header; a length is its JSON document.

    scenario     n,c_n,a,b,residual_num,residual_den
    flat-verify  relation,status,witness_n,left,right, or with --emit-spectrum
                 ID that orbifold's n,multiplicity (printed without --out)
    compare      length,a,b, the discrepancy table; in JSON one document
                 {almost_conjugate, witness, weight_differences, discrepancy}
    weights      length,weight
    dirichlet    sigma,t,real,imag; a non-finite --sigma or --t exits 2
    enumerate    length,orientation,nu,multiplicity; in JSON the spectrum
                 document, which is printed without --out
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import warnings
from fractions import Fraction
from typing import Any, Callable, Sequence, Tuple

from . import flat, interchange, scenario
from .dirichlet import ConvergenceWarning, dirichlet_partial_sum
from .errors import IsogeoError
from .hyperbolic import EnumConfig, enumerate_geodesics
from .lengths import DEFAULT_TOLERANCE
from .spectrum import (
    LengthTwistSpectrum,
    almost_conjugate,
    compare_weights,
    discrepancy,
    weight_function,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _rational_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


def _write_output(path: str, fmt: str, output: Any):
    """Write a table (a header row, then rows) as CSV or as a JSON list of
    objects keyed by the header, or a JSON document as it is."""
    with open(path, "w", newline="") as fp:
        if fmt == "csv":
            csv.writer(fp, lineterminator="\n").writerows(output)
        elif isinstance(output, LengthTwistSpectrum):  # the spectrum document of enumerate
            interchange.dump_spectrum(output, fp)
        elif isinstance(output, dict):  # the JSON document of compare
            interchange.dump_json(output, fp)
        else:
            interchange.dump_json([dict(zip(output[0], row)) for row in output[1:]], fp)


def _cmd_scenario(args) -> Tuple[int, Any]:
    rows = scenario.scenario_rows(scenario.build_scenario(args.q, args.n))
    print(f"scenario q={args.q}, lengths up to {args.n}*log({args.q})")
    print("c_n: " + ", ".join(str(r.c_n) for r in rows))
    bad = [r for r in rows if r.residual_num != 0]
    for r in rows if args.verbose else bad:
        print(
            f"  n={r.n}: a={r.a} b={r.b} residual="
            f"{r.residual_num}/{r.residual_den} {'FAIL' if r.residual_num else 'PASS'}"
        )
    print(f"constraint residuals: {len(rows) - len(bad)}/{len(rows)} zero")
    return EXIT_FAIL if bad else EXIT_OK, [scenario.ScenarioRow._fields, *rows]


def _cmd_flat_verify(args) -> Tuple[int, Any]:
    family = flat.LatticeKind.SQUARE if args.family == "square" else flat.LatticeKind.HEXAGONAL
    relations = [flat.parse_relation(args.relation)] if args.relation else flat.relations_for_family(family)
    oid = flat.OrbifoldId.__members__.get((args.emit_spectrum or "").upper())
    if args.emit_spectrum and oid is None:
        raise IsogeoError(f"unknown orbifold id {args.emit_spectrum!r}")
    # a named relation or orbifold must be of the family, checked before any relation is verified
    for kind, name, lattice in (("relation", args.relation, relations[0].lattice),
                                ("orbifold id", args.emit_spectrum, oid and oid.lattice)):
        if name and lattice is not family:
            raise IsogeoError(f"{kind} {name!r} is not in the {args.family} family")

    rows = [["relation", "status", "witness_n", "left", "right"]]
    for rel, (ok, witness) in zip(relations, flat.verify_relations(relations, args.max_norm)):
        if ok:
            print(f"PASS  {rel}  (all n <= {args.max_norm})")
            rows.append([str(rel), "PASS", "", "", ""])
        else:
            print(
                f"FAIL  {rel}  first failure at n={witness.n}: "
                f"{witness.left_total} != {witness.right_total}"
            )
            rows.append([str(rel), "FAIL", witness.n, witness.left_total, witness.right_total])

    code = EXIT_FAIL if any(row[1] == "FAIL" for row in rows) else EXIT_OK
    if not args.emit_spectrum:
        return code, rows
    spec_rows = sorted(flat.orbifold_spectrum(oid, args.max_norm).multiplicities.items())
    if not args.out:
        print(f"spectrum of {oid.label} up to {args.max_norm}:")
        for n, m in spec_rows:
            print(f"  {n},{m}")
    return code, [["n", "multiplicity"], *spec_rows]


def _int_digits(limit: int) -> int:
    """Set the interpreter's bound on the decimal digits of an int converted from
    or to a string (0: none) and return the bound it replaces.  Pythons before
    3.10.7 have no bound."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return 0
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    return old


def _read(args, path: str, load: Callable, *extra):
    """load(fp, *extra) on the file at path, under the bound on integer digits
    that main lifts for output: a document's huge literal would stall the parse
    and the exact arithmetic after it."""
    _int_digits(args.int_digits)
    try:
        with open(path) as fp:
            return load(fp, *extra)
    finally:
        _int_digits(0)


def _load_spectrum(args, path: str) -> LengthTwistSpectrum:
    return _read(args, path, interchange.load_spectrum, args.epsilon)


def _cmd_compare(args) -> Tuple[int, Any]:
    spec_a = _load_spectrum(args, args.a)
    spec_b = _load_spectrum(args, args.b)
    equal, witness = almost_conjugate(spec_a, spec_b)
    diffs = compare_weights(spec_a, spec_b)
    table = discrepancy(spec_a, spec_b)

    if equal:
        print(f"almost conjugate up to horizon {spec_a.horizon}")
    else:
        print(
            f"NOT almost conjugate: at l={witness.length} "
            f"({witness.orientation.value}, nu={witness.nu}) "
            f"multiplicities {witness.multiplicity_a} vs {witness.multiplicity_b}"
        )
    if diffs:
        print(f"total weight differs at {len(diffs)} lengths:")
        for l, wa, wb in diffs:
            print(f"  l={l}: {_rational_str(wa)} vs {_rational_str(wb)}")
    else:
        print("total weight functions agree up to horizon")

    code = EXIT_OK if equal else EXIT_FAIL
    if args.format == "csv":
        rows = [[interchange.length_cell(l), table.a_at(l), table.b_at(l)] for l in table.support()]
        return code, [["length", "a", "b"], *rows]
    return code, {
        "almost_conjugate": equal,
        "witness": None
        if witness is None
        else {
            "length": interchange.length_to_json(witness.length),
            "orientation": witness.orientation.value,
            "nu": witness.nu,
            "multiplicity_a": witness.multiplicity_a,
            "multiplicity_b": witness.multiplicity_b,
        },
        "weight_differences": [
            {
                "length": interchange.length_to_json(l),
                "w_a": _rational_str(wa),
                "w_b": _rational_str(wb),
            }
            for l, wa, wb in diffs
        ],
        "discrepancy": interchange.discrepancy_to_json(table),
    }


def _cmd_weights(args) -> Tuple[int, Any]:
    spec = _load_spectrum(args, args.spectrum)
    table = weight_function(spec)  # before any report line: W past the float range raises
    lines, rows = [f"total weight function up to horizon {spec.horizon}:"], [["length", "weight"]]
    for rep, w in table:
        w = _rational_str(w)
        lines.append(f"  l={rep}: W={w}")
        rows.append([interchange.length_cell(rep), w])
    print("\n".join(lines))
    return EXIT_OK, rows


def _cmd_dirichlet(args) -> Tuple[int, Any]:
    spec = _load_spectrum(args, args.spectrum)
    with warnings.catch_warnings(record=True) as caught:  # a ConvergenceWarning, as one line
        warnings.simplefilter("always", ConvergenceWarning)
        value = dirichlet_partial_sum(spec, complex(args.sigma, args.t))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    sigma, t, real, imag = (f"{x:.15g}" for x in (args.sigma, args.t, value.real, value.imag))
    print(f"D(s) at s = {sigma} + {t}i")
    print(f"real: {real}")
    print(f"imag: {imag}")
    return EXIT_OK, [["sigma", "t", "real", "imag"], [sigma, t, real, imag]]


def _cmd_enumerate(args) -> Tuple[int, Any]:
    generators = _read(args, args.generators, interchange.load_generators)
    config = EnumConfig(
        max_word_length=args.max_word_length,
        length_cutoff=args.cutoff,
        dedup_tolerance=args.epsilon,
    )
    result = enumerate_geodesics(generators, config)
    spec = result.spectrum
    print(
        f"enumerated {len(spec)} geodesic types "
        f"(total multiplicity {spec.total_multiplicity()}) up to length {args.cutoff}"
    )
    if result.elliptic:
        print(f"side channel: {len(result.elliptic)} elliptic/reflection words excluded")
    if result.dropped:
        print(f"dropped {result.dropped} identity/parabolic words")
    if args.out and args.format == "csv":
        rows = [
            [interchange.length_cell(e.length), e.orientation.value, e.nu, e.multiplicity]
            for e in spec.entries
        ]
        return EXIT_OK, [["length", "orientation", "nu", "multiplicity"], *rows]
    if not args.out:
        print(json.dumps(interchange.spectrum_to_json(spec), sort_keys=True))
    return EXIT_OK, spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isogeo",
        description="desk-scale length-twist spectrum and flat-orbifold verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="build and verify the necklace-count discrepancy family")
    p.add_argument("--q", type=int, default=2, help="grid base q >= 2 (l0 = log q)")
    p.add_argument("--n", type=int, default=24, help="horizon in multiples of l0")
    p.add_argument("--verbose", action="store_true", help="print every residual row")
    _finish(p, _cmd_scenario)

    p = sub.add_parser("flat-verify", help="verify flat-orbifold spectral relations")
    p.add_argument("--family", choices=["square", "hex"], required=True)
    p.add_argument("--max-norm", type=int, default=10000)
    p.add_argument("--relation", help='single relation, e.g. "S1+2S4=3S2"')
    p.add_argument("--emit-spectrum", metavar="ID", help="dump one orbifold spectrum instead")
    _finish(p, _cmd_flat_verify)

    p = sub.add_parser("compare", help="almost-conjugacy and weight comparison of two spectra")
    p.add_argument("--a", required=True, help="first spectrum JSON file")
    p.add_argument("--b", required=True, help="second spectrum JSON file")
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _finish(p, _cmd_compare)

    p = sub.add_parser("weights", help="print the total weight function of a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _finish(p, _cmd_weights)

    p = sub.add_parser("dirichlet", help="truncated spectral Dirichlet series evaluation")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _finish(p, _cmd_dirichlet)

    p = sub.add_parser("enumerate", help="enumerate geodesics from matrix generators")
    p.add_argument("--generators", required=True, help="generator JSON file")
    p.add_argument("--max-word-length", type=int, default=12)
    p.add_argument("--cutoff", type=float, default=4.0, help="length cutoff")
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _finish(p, _cmd_enumerate)

    return parser


def _finish(p: argparse.ArgumentParser, handler):
    """The --out and --format flags every subcommand takes, and its handler."""
    p.add_argument("--out", help="write machine output to this path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=handler)


_parser = functools.cache(build_parser)  # built on the first call of main, then reused


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    args.int_digits = _int_digits(0)  # exact integers print whole; documents are read under the bound
    try:
        code, output = args.func(args)
        if args.out:
            _write_output(args.out, args.format, output)
        return code
    except (IsogeoError, OSError, ValueError, OverflowError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)  # a bare MemoryError has no message
        return EXIT_USAGE
    finally:
        _int_digits(args.int_digits)


if __name__ == "__main__":
    sys.exit(main())
