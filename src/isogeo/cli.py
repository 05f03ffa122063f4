"""Command-line entry point.

One subcommand per workflow: scenario | flat-verify | compare | weights |
dirichlet | enumerate.  Human-readable reports go to stdout; machine
output (CSV or JSON, chosen by --format) is written to --out.  Exit codes:
0 success / all checks pass, 1 at least one verification failed, 2 usage
or input error.  Machine output is deterministic: identical invocations
produce byte-identical bytes, and rationals are printed as num/den, never
decimalized.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from fractions import Fraction
from typing import Any, List, Sequence

from . import flat, interchange, scenario
from .dirichlet import dirichlet_partial_sum
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


def _write_rows(path: str, fmt: str, header: List[str], rows: List[List[Any]]):
    if fmt == "csv":
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    else:
        with open(path, "w") as fp:
            interchange.dump_json([dict(zip(header, row)) for row in rows], fp)


def _cmd_scenario(args) -> int:
    sol = scenario.build_scenario(args.q, args.n)
    rows = scenario.scenario_rows(sol)
    print(f"scenario q={args.q}, lengths up to {args.n}*log({args.q})")
    print("c_n: " + ", ".join(str(r.c_n) for r in rows))
    bad = [r for r in rows if r.residual_num != 0]
    for r in rows:
        status = "PASS" if r.residual_num == 0 else "FAIL"
        if r.residual_num != 0 or args.verbose:
            print(
                f"  n={r.n}: a={r.a} b={r.b} residual="
                f"{r.residual_num}/{r.residual_den} {status}"
            )
    print(f"constraint residuals: {len(rows) - len(bad)}/{len(rows)} zero")
    if args.out:
        _write_rows(
            args.out,
            args.format,
            ["n", "c_n", "a", "b", "residual_num", "residual_den"],
            [[r.n, r.c_n, r.a, r.b, r.residual_num, r.residual_den] for r in rows],
        )
    return EXIT_FAIL if bad else EXIT_OK


def _cmd_flat_verify(args) -> int:
    family = flat.LatticeKind.SQUARE if args.family == "square" else flat.LatticeKind.HEXAGONAL
    if args.relation:
        relations = [flat.parse_relation(args.relation)]
        if relations[0].lattice is not family:
            raise IsogeoError(
                f"relation {args.relation!r} is not in the {args.family} family"
            )
    else:
        relations = list(flat.relations_for_family(family))

    rows = []
    failures = 0
    for rel, (ok, witness) in zip(relations, flat.verify_relations(relations, args.max_norm)):
        if ok:
            print(f"PASS  {rel}  (all n <= {args.max_norm})")
            rows.append([str(rel), "PASS", "", "", ""])
        else:
            failures += 1
            print(
                f"FAIL  {rel}  first failure at n={witness.n}: "
                f"{witness.left_total} != {witness.right_total}"
            )
            rows.append([str(rel), "FAIL", witness.n, witness.left_total, witness.right_total])

    if args.emit_spectrum:
        oid = _parse_orbifold(args.emit_spectrum)
        spec = flat.orbifold_spectrum(oid, args.max_norm)
        spec_rows = [[n, m] for n, m in sorted(spec.multiplicities.items())]
        if args.out:
            _write_rows(args.out, args.format, ["n", "multiplicity"], spec_rows)
        else:
            print(f"spectrum of {oid.label} up to {args.max_norm}:")
            for n, m in spec_rows:
                print(f"  {n},{m}")
    elif args.out:
        _write_rows(
            args.out,
            args.format,
            ["relation", "status", "witness_n", "left", "right"],
            rows,
        )
    return EXIT_FAIL if failures else EXIT_OK


def _parse_orbifold(label: str) -> flat.OrbifoldId:
    try:
        return flat.OrbifoldId[label.upper()]
    except KeyError:
        raise IsogeoError(f"unknown orbifold id {label!r}") from None


def _load_spectrum(path: str, tolerance: float) -> LengthTwistSpectrum:
    with open(path) as fp:
        return interchange.load_spectrum(fp, tolerance)


def _cmd_compare(args) -> int:
    spec_a = _load_spectrum(args.a, args.epsilon)
    spec_b = _load_spectrum(args.b, args.epsilon)
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

    if args.out:
        doc = {
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
        if args.format == "json":
            with open(args.out, "w") as fp:
                interchange.dump_json(doc, fp)
        else:
            rows = [
                [interchange.length_cell(l), table.a_at(l), table.b_at(l)]
                for l in table.support()
            ]
            _write_rows(args.out, "csv", ["length", "a", "b"], rows)
    return EXIT_OK if equal else EXIT_FAIL


def _cmd_weights(args) -> int:
    spec = _load_spectrum(args.spectrum, args.epsilon)
    print(f"total weight function up to horizon {spec.horizon}:")
    rows = []
    for rep, w in weight_function(spec):
        print(f"  l={rep}: W={_rational_str(w)}")
        rows.append([interchange.length_cell(rep), _rational_str(w)])
    if args.out:
        _write_rows(args.out, args.format, ["length", "weight"], rows)
    return EXIT_OK


def _cmd_dirichlet(args) -> int:
    spec = _load_spectrum(args.spectrum, args.epsilon)
    s = complex(args.sigma, args.t)
    value = dirichlet_partial_sum(spec, s)
    print(f"D(s) at s = {args.sigma:.15g} + {args.t:.15g}i")
    print(f"real: {value.real:.15g}")
    print(f"imag: {value.imag:.15g}")
    if args.out:
        row = [[f"{args.sigma:.15g}", f"{args.t:.15g}", f"{value.real:.15g}", f"{value.imag:.15g}"]]
        _write_rows(args.out, args.format, ["sigma", "t", "real", "imag"], row)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    with open(args.generators) as fp:
        generators = interchange.load_generators(fp)
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
    if args.out:
        if args.format == "json":
            with open(args.out, "w") as fp:
                interchange.dump_spectrum(spec, fp)
        else:
            rows = [
                [interchange.length_cell(e.length), e.orientation.value, e.nu, e.multiplicity]
                for e in spec.entries
            ]
            _write_rows(args.out, "csv", ["length", "orientation", "nu", "multiplicity"], rows)
    else:
        print(json.dumps(interchange.spectrum_to_json(spec), sort_keys=True))
    return EXIT_OK


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
    _add_output_flags(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("flat-verify", help="verify flat-orbifold spectral relations")
    p.add_argument("--family", choices=["square", "hex"], required=True)
    p.add_argument("--max-norm", type=int, default=10000)
    p.add_argument("--relation", help='single relation, e.g. "S1+2S4=3S2"')
    p.add_argument("--emit-spectrum", metavar="ID", help="dump one orbifold spectrum instead")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_flat_verify)

    p = sub.add_parser("compare", help="almost-conjugacy and weight comparison of two spectra")
    p.add_argument("--a", required=True, help="first spectrum JSON file")
    p.add_argument("--b", required=True, help="second spectrum JSON file")
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("weights", help="print the total weight function of a spectrum")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("dirichlet", help="truncated spectral Dirichlet series evaluation")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("enumerate", help="enumerate geodesics from matrix generators")
    p.add_argument("--generators", required=True, help="generator JSON file")
    p.add_argument("--max-word-length", type=int, default=12)
    p.add_argument("--cutoff", type=float, default=4.0, help="length cutoff")
    p.add_argument("--epsilon", type=float, default=DEFAULT_TOLERANCE)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_enumerate)

    return parser


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write machine output to this path")
    p.add_argument("--format", choices=["csv", "json"], default="csv")


_parser = functools.cache(build_parser)  # built on the first call of main, then reused


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (IsogeoError, OSError, ValueError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
