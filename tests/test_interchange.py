import copy
import dataclasses
import io
import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isogeo.hyperbolic import Isometry
from isogeo.interchange import (
    discrepancy_to_json,
    dump_spectrum,
    length_cell,
    length_from_json,
    length_to_json,
    load_generators,
    load_spectrum,
    spectrum_from_json,
    spectrum_to_json,
)
from isogeo.lengths import DEFAULT_TOLERANCE, Exact, Numeric, as_integer, positive_length
from isogeo.scenario import build_scenario, to_spectra
from isogeo.spectrum import (
    DiscrepancyTable,
    GeodesicEntry,
    LengthTwistSpectrum,
    Orientation,
    entry_counts,
)


def test_length_roundtrip():
    for l in (Exact(2, 3), Exact(3, Fraction(5, 2)), Numeric(1.2345)):
        assert length_from_json(length_to_json(l)) == l
    assert length_to_json(Exact(2, Fraction(3, 1))) == {"exact": {"q": 2, "num": 3, "den": 1}}
    assert length_from_json({"numeric": 1.2345}) == Numeric(1.2345)
    with pytest.raises(ValueError):
        length_from_json({"weird": 1})


def test_spectrum_roundtrip():
    spec = LengthTwistSpectrum(
        [
            GeodesicEntry(Exact(2, 1), Orientation.PRESERVING, nu=1, multiplicity=2),
            GeodesicEntry(Numeric(2.5), Orientation.REVERSING, nu=3, multiplicity=1),
        ],
        horizon=Numeric(9.0),
    )
    doc = spectrum_to_json(spec)
    back = spectrum_from_json(doc)
    assert back == spec

    buf = io.StringIO()
    dump_spectrum(spec, buf)
    buf.seek(0)
    assert load_spectrum(buf) == spec


P, R = Orientation.PRESERVING, Orientation.REVERSING
_dump_lengths = st.one_of(
    st.builds(lambda q, n, d: Exact(q, Fraction(n, d)), st.sampled_from([2, 3, 4]), st.integers(1, 10**6),
              st.integers(2, 10**6)),
    st.sampled_from([Numeric(5e-324), Numeric(1e-300), Numeric(1e300)]),
    st.builds(Numeric, st.floats(min_value=5e-324, max_value=1e300)),
)
_dump_counts = st.integers(1, 10**400)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(GeodesicEntry, _dump_lengths, st.sampled_from([P, R]), _dump_counts, _dump_counts),
                max_size=8),
       st.sampled_from([Numeric(1e300), Exact(2, 2 * 10**300)]))
@example([GeodesicEntry(Exact(2, 3), R, nu=3, multiplicity=2**70), GeodesicEntry(Exact(3, Fraction(5, 2)), P),
          GeodesicEntry(Numeric(1e-300), P, multiplicity=4), GeodesicEntry(Numeric(1e300), R)], Numeric(1e300))
@example([], Exact(2, 2 * 10**300))
def test_dump_bytes_match_the_stream_encoder(entries, horizon):
    # dump_spectrum formats the columns itself; its bytes must be those of json.dumps (the
    # C encoder) and of the pure-Python json.dump on spectrum_to_json
    spec = LengthTwistSpectrum(entries, horizon)
    doc, buf, ref = spectrum_to_json(spec), io.StringIO(), io.StringIO()
    dump_spectrum(spec, buf)
    json.dump(doc, ref, sort_keys=True, separators=(",", ":"))
    got = buf.getvalue()
    assert got == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == ref.getvalue() + "\n"
    assert all(f'"numeric":{e.length.value!r}}}' in got for e in spec.entries if isinstance(e.length, Numeric))
    assert all(f'"multiplicity":{e.multiplicity},' in got for e in spec.entries)
    bound = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if entries and bound:  # a count past the bound on int-to-string digits: both writers raise alike
        past = LengthTwistSpectrum([dataclasses.replace(entries[0], multiplicity=10**bound), *entries[1:]], horizon)
        with pytest.raises(ValueError) as exc:
            json.dumps(spectrum_to_json(past), sort_keys=True, separators=(",", ":"))
        with pytest.raises(exc.type):
            dump_spectrum(past, io.StringIO())


def test_spectrum_document_shape():
    spec = LengthTwistSpectrum(
        [GeodesicEntry(Exact(2, 3), Orientation.PRESERVING, multiplicity=2)],
        horizon=Exact(2, 10),
    )
    doc = spectrum_to_json(spec)
    assert doc["entries"][0] == {
        "length": {"exact": {"q": 2, "num": 3, "den": 1}},
        "orientation": "preserving",
        "nu": 1,
        "multiplicity": 2,
    }


def test_spectrum_from_json_defaults_and_errors():
    doc = {
        "horizon": {"numeric": 4.0},
        "entries": [{"length": {"numeric": 1.0}, "orientation": "preserving"}],
    }
    spec = spectrum_from_json(doc)
    assert spec.entries[0].nu == 1 and spec.entries[0].multiplicity == 1
    with pytest.raises(ValueError):
        spectrum_from_json({"entries": []})
    bad = {
        "horizon": {"numeric": 4.0},
        "entries": [{"length": {"numeric": 1.0}, "orientation": "sideways"}],
    }
    with pytest.raises(ValueError):
        spectrum_from_json(bad)
    for field in ("nu", "multiplicity"):
        fractional = {
            "horizon": {"numeric": 4.0},
            "entries": [{"length": {"numeric": 1.0}, "orientation": "preserving", field: 1.5}],
        }
        with pytest.raises(ValueError, match=field):
            spectrum_from_json(fractional)
    for exact, field in (({"q": 2.7, "num": 1}, "base"), ({"q": 2, "num": 1.5}, "num")):
        truncated = {
            "horizon": {"numeric": 4.0},
            "entries": [{"length": {"exact": exact}, "orientation": "preserving"}],
        }
        with pytest.raises(ValueError, match=field):
            spectrum_from_json(truncated)
    integral = {"horizon": {"exact": {"q": 4.0, "num": 3.0, "den": 1.0}}, "entries": []}
    assert spectrum_from_json(integral).horizon == Exact(2, 6)


def test_discrepancy_document_lists_the_support():
    t = DiscrepancyTable(
        {Exact(2, 1): 1, Exact(2, 3): 2}, {Exact(2, 1): 3}, Exact(2, 10)
    )
    exact = lambda num: {"exact": {"q": 2, "num": num, "den": 1}}
    assert discrepancy_to_json(t) == {"horizon": exact(10), "entries": [
        {"length": exact(1), "a": 1, "b": 3}, {"length": exact(3), "a": 2, "b": 0}]}


def test_generators_roundtrip():
    gens = [Isometry.diag(2.0, 0.5), Isometry(1.0, 2.0, 0.0, 1.0)]
    doc = json.dumps({"generators": [g.rows() for g in gens]})
    assert load_generators(io.StringIO(doc)) == gens
    with pytest.raises(ValueError):
        load_generators(io.StringIO('{"matrices": []}'))


@pytest.mark.parametrize("generators, message", [
    ([[["3", 0], [0, "0.3333333333333333"]]], "generators[0][0][0] must be a number, got '3'"),
    ([[[2.0, 0.0], [0.0, 0.5]], [[True, False], [False, True]]], "generators[1][0][0] must be a number, got True"),
    ([[[2.0, None], [0.0, 0.5]]], "generators[0][0][1] must be a number, got None"),
    ([[[2.0, 0.0], [0.0, 1e999]]], "generators[0][1][1] must be finite, got inf"),
    ([[[2.0, 0.0], [0.0, -10**400]]], f"generators[0][1][1] must be finite, got {-10**400}"),
    ({"a": 1}, "generators must be a list of 2x2 matrices, got {'a': 1}"),
    ([[[2.0, 0.0]]], "generators[0] must be a 2x2 matrix, got [[2.0, 0.0]]"),
    ([[[2.0, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0]]], "generators[1][1] must be a row of 2 numbers, got [0.0]"),
    ([[[2.0, 0.0], [0.0, 0.5], [1.0, 1.0]]], "generators[0] must be a 2x2 matrix"),
    ([5], "generators[0] must be a 2x2 matrix, got 5"),
    ([[1.0, 2.0]], "generators[0][0] must be a row of 2 numbers, got 1.0"),
], ids=["string", "bool", "null", "inf", "huge-int", "object", "one-row", "short-row", "three-rows",
        "number-matrix", "number-row"])
def test_generator_faults_name_their_path(generators, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_generators(io.StringIO(json.dumps({"generators": generators})))


def test_generator_numbers_keep_their_sign_and_convert_ints():
    [g] = load_generators(io.StringIO('{"generators": [[[-2, 0], [0, -0.5]]]}'))
    assert g.rows() == ((-2.0, 0.0), (0.0, -0.5)) and all(type(x) is float for row in g.rows() for x in row)


def test_a_scenario_document_holds_one_exact_per_length():
    spec = to_spectra(build_scenario(10, 314))[0]
    doc = spectrum_to_json(spec)
    assert len(doc["entries"]) == 1190
    loaded = spectrum_from_json(doc)
    exact = [l for l in loaded.exact if l is not None]
    assert loaded == spec and len({id(l) for l in exact}) == len(set(exact)) == 314


def test_spellings_that_json_tells_apart_share_no_exact():
    # True == 1 == 1.0 as dict keys; only a plain int may share a loaded length
    entry = {"orientation": "preserving"}
    doc = {"horizon": {"numeric": 5.0}, "entries": [
        {**entry, "length": {"exact": {"q": 2, "num": 1}}}, {**entry, "length": {"exact": {"q": 2.0, "num": 1.0}}}]}
    spec = spectrum_from_json(doc)
    assert spec.multiplicity.tolist() == [2] and spec.exact == [Exact(2, 1)]
    for fault in ({"q": True, "num": 1}, {"q": 2, "num": True}, {"q": 2, "num": 1, "den": True}):
        bad = copy.deepcopy(doc)
        bad["entries"].append({**entry, "length": {"exact": fault}})
        name, value = next((k, v) for k, v in fault.items() if v is True)
        with pytest.raises(ValueError, match=re.escape(f"{'base' if name == 'q' else name} must be an integer, got True")):
            spectrum_from_json(bad)


def test_dump_determinism():
    spec = LengthTwistSpectrum(
        [GeodesicEntry(Numeric(1.5), Orientation.REVERSING)], Numeric(3.0)
    )
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        dump_spectrum(spec, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    json.loads(bufs[0])


@pytest.mark.parametrize("value", ["1.5", "  2.0 ", "inf"])
def test_numeric_strings_are_no_numbers(value):
    message = f"numeric must be a number, got {value!r}"
    entry = {"length": {"numeric": value}, "orientation": "preserving"}
    with pytest.raises(ValueError, match=re.escape(message)):
        spectrum_from_json({"horizon": {"numeric": 4.0}, "entries": [entry]})
    with pytest.raises(ValueError, match=re.escape(message)):
        spectrum_from_json({"horizon": {"numeric": value}, "entries": []})


def _oracle_length(doc):
    """A length document as (float, Exact or None), by the per-entry rules."""
    if "exact" in doc:
        e = doc["exact"]
        num, den = as_integer(e["num"], "num"), as_integer(e.get("den", 1), "den")
        l = Exact(e["q"], Fraction(num, den))
        return l.approx(), l
    if "numeric" in doc:
        v = doc["numeric"]
        if isinstance(v, (bool, str)):
            raise ValueError(f"numeric must be a number, got {v!r}")
        return positive_length(float(v)), None
    raise ValueError(f"length must have an 'exact' or 'numeric' key, got {doc}")


def oracle_spectrum_from_json(doc, tolerance=DEFAULT_TOLERANCE):
    """The spectrum loader as it was first defined: a loop over the entries,
    each read and checked whole before the next."""
    try:
        if "horizon" not in doc or "entries" not in doc:
            raise ValueError("spectrum document needs 'horizon' and 'entries'")
        rows = []
        for e in doc["entries"]:
            x, l = _oracle_length(e["length"])
            reversing = Orientation(e["orientation"]) is Orientation.REVERSING
            rows.append((x, l, reversing, *entry_counts(e.get("nu", 1), e.get("multiplicity", 1))))
        columns = tuple(zip(*rows)) or ((),) * 5
        x, l = _oracle_length(doc["horizon"])
        return LengthTwistSpectrum.from_columns(columns, l or Numeric(x), tolerance)
    except KeyError as exc:
        raise ValueError(f"malformed document: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"malformed document: {exc}") from None


def _outcome(load, doc):
    """(spectrum, None) or (None, (error type, message))."""
    try:
        return load(copy.deepcopy(doc)), None
    except Exception as exc:  # the error itself is the outcome compared
        return None, (type(exc), str(exc))


_lengths = st.one_of(
    st.floats(1e-3, 40.0).map(lambda x: {"numeric": x}),
    st.integers(1, 40).map(lambda n: {"numeric": n}),
    st.builds(lambda q, num, den: {"exact": {"q": q, "num": num, "den": den}},
              st.integers(2, 9), st.integers(1, 12), st.integers(1, 4)),
    st.builds(lambda q, num: {"exact": {"q": q, "num": num}}, st.integers(2, 9), st.integers(1, 12)),
    # Exact(2, 1), its spelling on base 4, and its Numeric twin with the same float
    st.sampled_from([{"exact": {"q": 2, "num": 1}}, {"exact": {"q": 4, "num": 1, "den": 2}},
                     {"numeric": math.log(2)}]),
)
_entries = st.builds(
    lambda length, o, nu, m: {"length": length, "orientation": o, **nu, **m},
    _lengths,
    st.sampled_from(["preserving", "reversing"]),
    st.sampled_from([{}, {"nu": 1}, {"nu": 2}, {"nu": 3}, {"nu": 2.0}]),
    st.sampled_from([{}, {"multiplicity": 1}, {"multiplicity": 4}, {"multiplicity": 2**70},
                     {"multiplicity": 3.0}]),
)
_FAULTS = {
    "bool-nu": lambda e: e.update(nu=True),
    "bool-multiplicity": lambda e: e.update(multiplicity=False),
    "bool-numeric": lambda e: e.update(length={"numeric": True}),
    "bool-num": lambda e: e.update(length={"exact": {"q": 2, "num": True}}),
    "bool-q": lambda e: e.update(length={"exact": {"q": True, "num": 1}}),
    "bool-den": lambda e: e.update(length={"exact": {"q": 2, "num": 1, "den": True}}),
    "exact-number": lambda e: e.update(length={"exact": 2}),
    "string-numeric": lambda e: e.update(length={"numeric": "1.5"}),
    "string-nu": lambda e: e.update(nu="2"),
    "missing-length": lambda e: e.pop("length", None),
    "missing-orientation": lambda e: e.pop("orientation", None),
    "missing-num": lambda e: e.update(length={"exact": {"q": 2}}),
    "missing-encoding": lambda e: e.update(length={"value": 1.0}),
    "length-number": lambda e: e.update(length=5),
    "length-list": lambda e: e.update(length=[1.0]),
    "nu-zero": lambda e: e.update(nu=0),
    "fractional-multiplicity": lambda e: e.update(multiplicity=1.5),
    "nan": lambda e: e.update(length={"numeric": math.nan}),
    "inf": lambda e: e.update(length={"numeric": math.inf}),
    "negative": lambda e: e.update(length={"numeric": -1.0}),
    "zero": lambda e: e.update(length={"numeric": 0}),
    "unknown-orientation": lambda e: e.update(orientation="sideways"),
    "orientation-list": lambda e: e.update(orientation=["reversing"]),
}


@st.composite
def _documents(draw, min_size=0):
    entries = draw(st.lists(_entries, min_size=min_size, max_size=14))
    entries += [copy.deepcopy(e) for e in draw(st.lists(st.sampled_from(entries), max_size=4))] if entries else []
    doc = {"horizon": draw(st.sampled_from([{"numeric": 200.0}, {"exact": {"q": 2, "num": 300}}])),
           "entries": draw(st.permutations(entries))}
    if draw(st.booleans()):  # canonical order, as dump_spectrum writes it
        doc = spectrum_to_json(oracle_spectrum_from_json(doc))
    return doc


@settings(max_examples=250, deadline=None)
@given(_documents())
def test_column_loader_matches_per_entry_loader(doc):
    want, got = oracle_spectrum_from_json(doc), spectrum_from_json(doc)
    assert got == want and got.entries == want.entries and got.horizon == want.horizon
    assert (got.approx.dtype, got.reversing.dtype) == (want.approx.dtype, want.reversing.dtype)
    for column in ("exact", "nu", "multiplicity"):
        assert list(map(type, getattr(got, column))) == list(map(type, getattr(want, column)))
    assert dumped(got) == dumped(want)


@settings(max_examples=400, deadline=None)
@given(_documents(min_size=1),
       st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(sorted(_FAULTS))), min_size=1, max_size=2))
def test_column_loader_names_the_first_fault(doc, faults):
    for at, fault in faults:
        _FAULTS[fault](doc["entries"][at % len(doc["entries"])])
    want = _outcome(oracle_spectrum_from_json, doc)
    assert want[1] is not None
    assert _outcome(spectrum_from_json, doc) == want


def dumped(spec) -> str:
    buf = io.StringIO()
    dump_spectrum(spec, buf)
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.floats(1e-300, 1e300).map(Numeric),
    st.builds(lambda q, num, den: Exact(q, Fraction(num, den)),
              st.integers(2, 10**6), st.integers(1, 10**45), st.integers(1, 10**42)),
))
def test_length_cell_is_the_sorted_json_encoding(l):
    assert length_cell(l) == json.dumps(length_to_json(l), sort_keys=True)
