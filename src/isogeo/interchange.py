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

Generator document:

    {"generators": [[[a, b], [c, d]], ...]}
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import IO, Any, Callable, Dict, List

from .hyperbolic import Isometry
from .lengths import DEFAULT_TOLERANCE, Exact, LengthValue, Numeric, as_integer
from .spectrum import (
    DiscrepancyTable,
    GeodesicEntry,
    LengthTwistSpectrum,
    Orientation,
)


def _document(parse: Callable) -> Callable:
    """Report a document of the wrong shape (a missing key, a value of the
    wrong type) as a ValueError, like any other malformed input."""

    @functools.wraps(parse)
    def checked(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except KeyError as exc:
            raise ValueError(f"malformed document: missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed document: {exc}") from None

    return checked


def length_to_json(l: LengthValue) -> Dict[str, Any]:
    if isinstance(l, Exact):
        return {"exact": {"q": l.base, "num": l.mult.numerator, "den": l.mult.denominator}}
    return {"numeric": l.value}


def length_cell(l: LengthValue) -> str:
    """A length as one CSV cell: its JSON encoding with sorted keys."""
    return json.dumps(length_to_json(l), sort_keys=True)


def length_from_json(doc: Dict[str, Any]) -> LengthValue:
    if "exact" in doc:
        e = doc["exact"]
        num, den = as_integer(e["num"], "num"), as_integer(e.get("den", 1), "den")
        return Exact(e["q"], Fraction(num, den))
    if "numeric" in doc:
        return Numeric(float(doc["numeric"]))
    raise ValueError(f"length must have an 'exact' or 'numeric' key, got {doc}")


def spectrum_to_json(spec: LengthTwistSpectrum) -> Dict[str, Any]:
    return {
        "horizon": length_to_json(spec.horizon),
        "entries": [
            {
                "length": length_to_json(e.length),
                "orientation": e.orientation.value,
                "nu": e.nu,
                "multiplicity": e.multiplicity,
            }
            for e in spec.entries
        ],
    }


@_document
def spectrum_from_json(
    doc: Dict[str, Any], tolerance: float = DEFAULT_TOLERANCE
) -> LengthTwistSpectrum:
    if "horizon" not in doc or "entries" not in doc:
        raise ValueError("spectrum document needs 'horizon' and 'entries'")
    entries = [
        GeodesicEntry(
            length=length_from_json(e["length"]),
            orientation=Orientation(e["orientation"]),
            nu=e.get("nu", 1),
            multiplicity=e.get("multiplicity", 1),
        )
        for e in doc["entries"]
    ]
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
    a: Dict[LengthValue, int] = {}
    b: Dict[LengthValue, int] = {}
    for row in doc["entries"]:
        l = length_from_json(row["length"])
        if row.get("a"):
            a[l] = as_integer(row["a"], "a")
        if row.get("b"):
            b[l] = as_integer(row["b"], "b")
    return DiscrepancyTable(a, b, length_from_json(doc["horizon"]))


def load_spectrum(fp: IO[str], tolerance: float = DEFAULT_TOLERANCE) -> LengthTwistSpectrum:
    return spectrum_from_json(json.load(fp), tolerance)


def dump_json(doc: Any, fp: IO[str]):
    """Canonical machine output: sorted keys, no spaces, one final newline."""
    json.dump(doc, fp, sort_keys=True, separators=(",", ":"))
    fp.write("\n")


def dump_spectrum(spec: LengthTwistSpectrum, fp: IO[str]):
    dump_json(spectrum_to_json(spec), fp)


@_document
def load_generators(fp: IO[str]) -> List[Isometry]:
    doc = json.load(fp)
    if "generators" not in doc:
        raise ValueError("generator document needs a 'generators' key")
    return [Isometry.from_matrix(rows) for rows in doc["generators"]]


def dump_generators(generators: List[Isometry], fp: IO[str]):
    dump_json({"generators": [[list(row) for row in g.rows()] for g in generators]}, fp)
