"""File formats: spectrum and discrepancy-table JSON, generators, CSV rows.

Length encoding, shared by every document:

    {"exact": {"q": 2, "num": 3, "den": 1}}   means (3/1) * log(2)
    {"numeric": 1.2345}                       means the float 1.2345

Spectrum document:

    {"horizon": <length>, "entries": [{"length": <length>,
        "orientation": "preserving" | "reversing",
        "nu": 1, "multiplicity": 2}, ...]}

Discrepancy document: same length encoding with integer "a"/"b" fields:

    {"horizon": <length>, "entries": [{"length": <length>, "a": 1, "b": 3}]}

Generator document, each entry a finite int or float of either sign:

    {"generators": [[[a, b], [c, d]], ...]}
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import IO, Any, Callable, Dict, Iterable, List, Tuple

import numpy as np

from .hyperbolic import Isometry
from .lengths import (
    DEFAULT_TOLERANCE,
    Exact,
    ExactKeys,
    LengthValue,
    Numeric,
    as_integer,
    exact_keys,
    finite_number,
)
from .spectrum import (
    ORIENTATIONS,
    DiscrepancyTable,
    GeodesicEntry,
    LengthTwistSpectrum,
    Orientation,
)

_REVERSING = {o.value: o is Orientation.REVERSING for o in Orientation}


def _document(parse: Callable) -> Callable:
    """Report a document of the wrong shape (a missing key, a value of the
    wrong type, nesting too deep for the parser) as a ValueError, like any
    other malformed input."""

    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except KeyError as exc:
            raise ValueError(f"malformed document: missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed document: {exc}") from None
        except RecursionError:
            raise ValueError("malformed document: nested too deeply") from None

    return checked


def length_to_json(l: LengthValue) -> Dict[str, Any]:
    if isinstance(l, Exact):
        return {"exact": {"q": l.base, "num": l.mult.numerator, "den": l.mult.denominator}}
    return {"numeric": l.value}


def length_cell(l: LengthValue) -> str:
    """A length as one CSV cell: json.dumps(length_to_json(l), sort_keys=True)."""
    if isinstance(l, Exact):
        return f'{{"exact": {{"den": {l.mult.denominator}, "num": {l.mult.numerator}, "q": {l.base}}}}}'
    return f'{{"numeric": {l.value!r}}}'


def length_from_json(doc: Dict[str, Any]) -> LengthValue:
    if "exact" in doc:
        e = doc["exact"]
        num, den = as_integer(e["num"], "num"), as_integer(e.get("den", 1), "den")
        if den == 0:
            raise ValueError("den must be nonzero")
        return Exact(e["q"], Fraction(num, den))
    if "numeric" in doc:
        return Numeric(doc["numeric"])
    raise ValueError(f"length must have an 'exact' or 'numeric' key, got {doc}")


def _rows(spec: LengthTwistSpectrum) -> Iterable[tuple]:  # (approx, q, num, den, reversing, nu, multiplicity)
    return zip(*(c.tolist() for c in (spec.approx, *spec.keys, spec.reversing, spec.nu, spec.multiplicity)))


def spectrum_to_json(spec: LengthTwistSpectrum) -> Dict[str, Any]:
    return {"horizon": length_to_json(spec.horizon),
            "entries": [{"length": {"exact": {"q": q, "num": n, "den": d}} if q else {"numeric": x},
                         "orientation": ORIENTATIONS[r].value, "nu": nu, "multiplicity": m}
                        for x, q, n, d, r, nu, m in _rows(spec)]}


def _entry_columns(entries: List[Dict[str, Any]]) -> tuple:
    """The entries as columns (approx, keys, reversing, nu, multiplicity), each field
    gathered in one pass; only exact lengths reach length_from_json, once per distinct
    (q, num, den).  Raises unless q, num and den are plain ints and every numeric length
    is an int or a float (numpy would take a bool or a string); the spectrum checks the values."""
    lengths = [e["length"] for e in entries]
    reversing = [_REVERSING[e["orientation"]] for e in entries]
    nu, mult = [e.get("nu", 1) for e in entries], [e.get("multiplicity", 1) for e in entries]
    shared: Dict[tuple, Exact] = {}

    def exact_column(doc: Dict[str, Any]) -> Tuple[float, Exact]:
        e = doc["exact"]
        key = (e["q"], e["num"], e.get("den", 1))
        if set(map(type, key)) != {int}:  # True == 1.0 == 1 as keys; only 1 is a plain int
            raise TypeError("an exact length is not plain ints")  # read entry by entry instead
        if key not in shared:
            shared[key] = length_from_json(doc)
        return shared[key].approx(), shared[key]

    if any("exact" in l for l in lengths):
        x, exact = zip(*[exact_column(l) if "exact" in l else (l["numeric"], None) for l in lengths])
        keys = exact_keys(exact)
    else:  # a numeric document builds no key rows
        x, keys = [l["numeric"] for l in lengths], ExactKeys.numeric(len(lengths))
    if set(map(type, x)) - {int, float}:
        raise ValueError("a column holds a value that is not plain")
    return np.array(x, dtype=float), keys, reversing, nu, mult


@_document
def spectrum_from_json(
    doc: Dict[str, Any], tolerance: float = DEFAULT_TOLERANCE
) -> LengthTwistSpectrum:
    if "horizon" not in doc or "entries" not in doc:
        raise ValueError("spectrum document needs 'horizon' and 'entries'")
    if type(doc["entries"]) is not list:
        raise TypeError(f"entries must be a list, got {type(doc['entries']).__name__}")
    try:
        columns = _entry_columns(doc["entries"])
        return LengthTwistSpectrum.from_columns(columns, length_from_json(doc["horizon"]), tolerance)
    except (LookupError, TypeError, ValueError, ArithmeticError):
        # entry by entry: the first fault in document order raises, and nu 2.0 converts
        entries = [GeodesicEntry(length_from_json(e["length"]), Orientation(e["orientation"]),
                                 e.get("nu", 1), e.get("multiplicity", 1)) for e in doc["entries"]]
    return LengthTwistSpectrum(entries, length_from_json(doc["horizon"]), tolerance)


def discrepancy_to_json(table: DiscrepancyTable) -> Dict[str, Any]:
    rows = []
    for l in table.support():
        rows.append(
            {"length": length_to_json(l), "a": table.a_at(l), "b": table.b_at(l)}
        )
    return {"horizon": length_to_json(table.horizon), "entries": rows}


@_document
def discrepancy_from_json(doc: Dict[str, Any]) -> DiscrepancyTable:
    if type(doc["entries"]) is not list:
        raise TypeError(f"entries must be a list, got {type(doc['entries']).__name__}")
    a: Dict[LengthValue, int] = {}
    b: Dict[LengthValue, int] = {}
    for row in doc["entries"]:
        l = length_from_json(row["length"])
        if l in a:  # also under another spelling: Exact(4, 1) == Exact(2, 2)
            raise ValueError(f"length {l} is listed twice")
        a[l], b[l] = as_integer(row.get("a", 0), "a"), as_integer(row.get("b", 0), "b")
    return DiscrepancyTable(a, b, length_from_json(doc["horizon"]))


@_document
def load_spectrum(fp: IO[str], tolerance: float = DEFAULT_TOLERANCE) -> LengthTwistSpectrum:
    return spectrum_from_json(json.load(fp), tolerance)


def dump_json(doc: Any, fp: IO[str]):
    """Canonical machine output: sorted keys, no spaces, one final newline."""
    fp.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def dump_spectrum(spec: LengthTwistSpectrum, fp: IO[str]):
    """The bytes of dump_json(spectrum_to_json(spec), fp), one f-string per entry of the columns."""
    orientation = [f'"orientation":"{o.value}"' for o in ORIENTATIONS]
    entries = ",".join(
        f'{{"length":{{"exact":{{"den":{d},"num":{n},"q":{q}}}}},"multiplicity":{m},"nu":{nu},{orientation[r]}}}'
        if q else f'{{"length":{{"numeric":{x!r}}},"multiplicity":{m},"nu":{nu},{orientation[r]}}}'
        for x, q, n, d, r, nu, m in _rows(spec))
    horizon = json.dumps(length_to_json(spec.horizon), sort_keys=True, separators=(",", ":"))
    fp.write(f'{{"entries":[{entries}],"horizon":{horizon}}}\n')


def _matrix(rows: Any, path: str) -> List[List[float]]:
    """A 2x2 matrix document as rows of floats; a fault names its path."""
    if type(rows) is not list or len(rows) != 2:
        raise ValueError(f"{path} must be a 2x2 matrix, got {rows!r}")
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != 2:
            raise ValueError(f"{path}[{i}] must be a row of 2 numbers, got {row!r}")
    return [[finite_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)] for i, row in enumerate(rows)]


@_document
def load_generators(fp: IO[str]) -> List[Isometry]:
    doc = json.load(fp)
    if "generators" not in doc:
        raise ValueError("generator document needs a 'generators' key")
    generators = doc["generators"]
    if type(generators) is not list:
        raise ValueError(f"generators must be a list of 2x2 matrices, got {generators!r}")
    return [Isometry.from_matrix(_matrix(rows, f"generators[{k}]")) for k, rows in enumerate(generators)]


def dump_generators(generators: List[Isometry], fp: IO[str]):
    dump_json({"generators": [[list(row) for row in g.rows()] for g in generators]}, fp)
