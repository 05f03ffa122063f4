import io
import json
from fractions import Fraction

import pytest

from isogeo.hyperbolic import Isometry
from isogeo.interchange import (
    discrepancy_from_json,
    discrepancy_to_json,
    dump_generators,
    dump_spectrum,
    length_from_json,
    length_to_json,
    load_generators,
    load_spectrum,
    spectrum_from_json,
    spectrum_to_json,
)
from isogeo.lengths import Exact, Numeric
from isogeo.spectrum import DiscrepancyTable, GeodesicEntry, LengthTwistSpectrum, Orientation


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


def test_dump_bytes_match_the_stream_encoder():
    # dump_json writes through json.dumps (the C encoder); the bytes must be
    # those of the pure-Python json.dump
    P, R = Orientation.PRESERVING, Orientation.REVERSING
    spec = LengthTwistSpectrum(
        [
            GeodesicEntry(Exact(2, 3), R, nu=3, multiplicity=2**70),
            GeodesicEntry(Exact(3, Fraction(5, 2)), P),
            GeodesicEntry(Numeric(1e-300), P, multiplicity=4),
            GeodesicEntry(Numeric(1e300), R),
        ],
        horizon=Numeric(1e300),
    )
    buf, ref = io.StringIO(), io.StringIO()
    dump_spectrum(spec, buf)
    json.dump(spectrum_to_json(spec), ref, sort_keys=True, separators=(",", ":"))
    ref.write("\n")
    assert buf.getvalue() == ref.getvalue()
    assert "1e-300" in buf.getvalue() and str(2**70) in buf.getvalue()


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


def test_discrepancy_roundtrip():
    t = DiscrepancyTable(
        {Exact(2, 1): 1, Exact(2, 3): 2}, {Exact(2, 1): 3}, Exact(2, 10)
    )
    back = discrepancy_from_json(discrepancy_to_json(t))
    assert back == t
    doc = discrepancy_to_json(t)
    assert doc["entries"][0]["a"] == 1 and doc["entries"][0]["b"] == 3


def test_generators_roundtrip():
    gens = [Isometry.diag(2.0, 0.5), Isometry(1.0, 2.0, 0.0, 1.0)]
    buf = io.StringIO()
    dump_generators(gens, buf)
    buf.seek(0)
    back = load_generators(buf)
    assert back == gens
    with pytest.raises(ValueError):
        load_generators(io.StringIO('{"matrices": []}'))


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


@pytest.mark.parametrize("field", ["a", "b"])
@pytest.mark.parametrize("value", [1.5, "3", [2]])
def test_discrepancy_rejects_non_integral_counts(field, value):
    doc = {
        "horizon": {"exact": {"q": 2, "num": 10}},
        "entries": [{"length": {"exact": {"q": 2, "num": 1}}, field: value}],
    }
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        discrepancy_from_json(doc)


def test_discrepancy_accepts_integral_floats():
    doc = {
        "horizon": {"exact": {"q": 2, "num": 10}},
        "entries": [{"length": {"exact": {"q": 2, "num": 1}}, "a": 2.0, "b": 3}],
    }
    table = discrepancy_from_json(doc)
    assert table.a_at(Exact(2, 1)) == 2 and table.b_at(Exact(2, 1)) == 3
    assert type(table.a_at(Exact(2, 1))) is int
