import copy
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import isogeo
from isogeo import interchange
from isogeo.cli import main
from isogeo.dirichlet import _series_term
from isogeo.hyperbolic import Isometry
from isogeo.interchange import dump_generators, dump_spectrum
from isogeo.lengths import Exact, Numeric
from isogeo.scenario import build_scenario, necklace_count, to_spectra
from isogeo.spectrum import GeodesicEntry, LengthTwistSpectrum, Orientation


@pytest.fixture
def sample_spectrum(tmp_path):
    spec = LengthTwistSpectrum(
        [
            GeodesicEntry(Exact(2, 1), Orientation.PRESERVING, multiplicity=2),
            GeodesicEntry(Exact(2, 1), Orientation.REVERSING, multiplicity=2),
        ],
        horizon=Exact(2, 6),
    )
    path = tmp_path / "spec.json"
    with open(path, "w") as fp:
        dump_spectrum(spec, fp)
    return path


def test_scenario_prints_row(capsys):
    assert main(["scenario", "--q", "2", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert "2, 1, 2, 3, 6, 9, 18, 30, 56, 99" in out
    assert "10/10 zero" in out


def test_scenario_machine_output(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["scenario", "--q", "3", "--n", "5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,c_n,a,b,residual_num,residual_den"
    assert lines[1] == "1,3,2,4,0,1"
    assert lines[3] == "3,8,8,8,0,1"
    capsys.readouterr()


def test_scenario_output_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        assert main(["scenario", "--q", "2", "--n", "8", "--out", str(p), "--format", "json"]) == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    capsys.readouterr()


def test_flat_verify_pass(capsys):
    assert main(["flat-verify", "--family", "square", "--max-norm", "100"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "S1+2S4=3S2" in out


def test_flat_verify_hex_all(capsys):
    assert main(["flat-verify", "--family", "hex", "--max-norm", "60"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5


def test_flat_verify_single_relation(tmp_path, capsys):
    out = tmp_path / "rel.csv"
    rc = main(
        [
            "flat-verify",
            "--family",
            "hex",
            "--max-norm",
            "50",
            "--relation",
            "H2+H6=2H3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert "H2+H6=2H3,PASS" in out.read_text()
    capsys.readouterr()


def test_flat_verify_family_mismatch(capsys):
    rc = main(["flat-verify", "--family", "square", "--relation", "H2+H6=2H3"])
    assert rc == 2
    capsys.readouterr()


def test_flat_emit_spectrum(tmp_path, capsys):
    out = tmp_path / "s4.csv"
    rc = main(
        ["flat-verify", "--family", "square", "--max-norm", "10", "--emit-spectrum", "S4", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,multiplicity"
    assert lines[1] == "0,1"
    assert lines[2] == "1,1"
    capsys.readouterr()


def test_compare_self(sample_spectrum, capsys):
    rc = main(["compare", "--a", str(sample_spectrum), "--b", str(sample_spectrum)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "almost conjugate up to horizon" in out


def test_compare_scenario_pair(tmp_path, capsys):
    a, b = to_spectra(build_scenario(2, 8))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    with open(pa, "w") as fp:
        dump_spectrum(a, fp)
    with open(pb, "w") as fp:
        dump_spectrum(b, fp)
    rc = main(["compare", "--a", str(pa), "--b", str(pb), "--out", str(tmp_path / "r.json"), "--format", "json"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "NOT almost conjugate" in out
    assert "weight functions agree" in out
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["almost_conjugate"] is False
    assert report["weight_differences"] == []
    assert report["witness"]["length"] == {"exact": {"q": 2, "num": 1, "den": 1}}


def test_weights_output(sample_spectrum, capsys):
    rc = main(["weights", "--spectrum", str(sample_spectrum)])
    assert rc == 0
    out = capsys.readouterr().out
    # 2 + 2*(1/3) = 8/3, printed as a rational
    assert "8/3" in out


def test_dirichlet_digits(sample_spectrum, capsys):
    rc = main(["dirichlet", "--spectrum", str(sample_spectrum), "--sigma", "2.0", "--t", "0.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "real:" in out and "imag:" in out
    real_line = [l for l in out.splitlines() if l.startswith("real:")][0]
    assert len(real_line.split()[1].replace(".", "").replace("-", "").lstrip("0")) >= 10


def test_enumerate_cli(tmp_path, capsys):
    gens = tmp_path / "gens.json"
    with open(gens, "w") as fp:
        dump_generators([Isometry.diag(2.0, 0.5)], fp)
    out = tmp_path / "spec.json"
    rc = main(
        [
            "enumerate",
            "--generators",
            str(gens),
            "--max-word-length",
            "3",
            "--cutoff",
            "10.0",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["entries"]) == 3
    assert all("numeric" in e["length"] for e in doc["entries"])
    capsys.readouterr()


def test_enumerate_reports_its_side_channel(tmp_path, capsys):
    # a quarter turn (elliptic), a parabolic and a hyperbolic generator: the words the
    # spectrum leaves out are counted on stdout, in either --out format
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": [[[0, -1], [1, 0]], [[1, 1], [0, 1]], [[2, 0], [0, 0.5]]]}))
    stdout = ("enumerated 3 geodesic types (total multiplicity 16) up to length 3.0\n"
              "side channel: 9 elliptic/reflection words excluded\n"
              "dropped 12 identity/parabolic words\n")
    rows = [(1.3862943611198906, 1, 10), (2.772588722239781, 1, 4), (2.772588722239781, 2, 2)]
    for fmt in ("csv", "json"):
        capsys.readouterr()
        argv = ["enumerate", "--generators", str(gens), "--max-word-length", "3", "--cutoff", "3",
                "--out", str(tmp_path / f"spec.{fmt}"), "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr() == (stdout, "")
    assert (tmp_path / "spec.csv").read_text().splitlines() == ["length,orientation,nu,multiplicity"] + [
        f'"{{""numeric"": {x!r}}}",preserving,{nu},{m}' for x, nu, m in rows]
    assert json.loads((tmp_path / "spec.json").read_text()) == {"horizon": {"numeric": 3.0}, "entries": [
        {"length": {"numeric": x}, "orientation": "preserving", "nu": nu, "multiplicity": m} for x, nu, m in rows]}


@pytest.mark.parametrize(
    "generators, message",
    [
        (
            [[[1e120, 0.0], [0.0, 1e-120]], [[2.0, 0.0], [0.0, 0.5]]],
            "error: the product of word (1, 1, 1) overflows float64 at dedup_tolerance 1e-09: "
            "(inf, 0.0, 0.0, 0.0)",
        ),
        (
            [[[1e200, 0.0], [0.0, 1e-200]]],
            "error: matrix entries must be finite and below 3.352e+153, got ((1e+200, 0.0), (0.0, 1e-200))",
        ),
        (
            [[[1e7, 1e7], [1e7, 1e7]]],
            "error: |det| = 1 cannot be told from 0 within 1.42109 at entries "
            "((10000000.0, 10000000.0), (10000000.0, 10000000.0))",
        ),
    ],
    ids=["overflowing-product", "oversized-entry", "unresolvable-determinant"],
)
def test_enumerate_out_of_range_is_usage_error(tmp_path, capsys, generators, message):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"generators": generators}))
    capsys.readouterr()
    assert main(["enumerate", "--generators", str(gens), "--max-word-length", "3", "--cutoff", "10.0"]) == 2
    assert capsys.readouterr() == ("", message + "\n")


# generator documents that float() would take or that fail on unpacking
BAD_GENERATORS = {
    "gens_strings": [[["3", 0], [0, "0.3333333333333333"]], [[True, False], [False, True]]],
    "gens_object": {"a": 1},
    "gens_one_row": [[[2.0, 0.0]]],
}


@pytest.mark.parametrize(
    "generators, message",
    [
        (BAD_GENERATORS["gens_strings"], "error: generators[0][0][0] must be a number, got '3'"),
        ([[[True, False], [False, True]]], "error: generators[0][0][0] must be a number, got True"),
        ([[[2.0, 0.0], [0.0, float("nan")]]], "error: generators[0][1][1] must be finite, got nan"),
        (BAD_GENERATORS["gens_object"], "error: generators must be a list of 2x2 matrices, got {'a': 1}"),
        (BAD_GENERATORS["gens_one_row"], "error: generators[0] must be a 2x2 matrix, got [[2.0, 0.0]]"),
    ],
    ids=["strings", "booleans", "nan", "object", "one-row"],
)
def test_generator_document_faults_are_usage_errors(tmp_path, capsys, generators, message):
    gens, out = tmp_path / "gens.json", tmp_path / "out.csv"
    gens.write_text(json.dumps({"generators": generators}))
    capsys.readouterr()
    assert main(["enumerate", "--generators", str(gens), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message + "\n") and not out.exists()


def test_usage_errors(tmp_path, capsys):
    assert main(["compare", "--a", "/nonexistent.json", "--b", "/nonexistent.json"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: out of memory"),
    (MemoryError("Unable to allocate 7.45 GiB"), "error: Unable to allocate 7.45 GiB"),
])
def test_a_refused_allocation_is_usage_error(monkeypatch, capsys, exc, message):
    def refuse(lattice, max_norm):
        raise exc

    monkeypatch.setattr(isogeo.flat, "_census", refuse)
    capsys.readouterr()
    assert main(["flat-verify", "--family", "square", "--max-norm", "1000000000"]) == 2
    assert capsys.readouterr() == ("", message + "\n")


def test_fractional_nu_is_usage_error(tmp_path, capsys):
    doc = {
        "horizon": {"numeric": 4.0},
        "entries": [{"length": {"numeric": 1.0}, "orientation": "preserving", "nu": 1.5}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["weights", "--spectrum", str(path)]) == 2
    assert main(["compare", "--a", str(path), "--b", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: nu must be an integer, got 1.5"] * 2


@pytest.mark.parametrize(
    "length, command, message",
    [
        ({"q": 2.7, "num": 1}, ["weights"], "error: base must be an integer, got 2.7"),
        ({"q": 2, "num": 1.5}, ["weights"], "error: num must be an integer, got 1.5"),
        ({"q": 2, "num": 1, "den": 0}, ["weights"], "error: den must be nonzero"),
        (
            {"q": 2, "num": 10**400},
            ["dirichlet", "--sigma", "1.5"],
            f"error: exact length {10**400}*log(2) is past the float range",
        ),
        ({"q": 2}, ["weights"], "error: malformed document: missing key 'num'"),
        # JSON booleans are no integers, although bool is Integral
        ({"q": True, "num": 1}, ["weights"], "error: base must be an integer, got True"),
        ({"q": 2, "num": True}, ["weights"], "error: num must be an integer, got True"),
        ({"q": 2, "num": 1, "den": True}, ["weights"], "error: den must be an integer, got True"),
    ],
)
def test_bad_exact_length_is_usage_error(tmp_path, capsys, length, command, message):
    # a malformed or out-of-range input file gives one line of error and exit 2,
    # never a traceback with exit 1, which means "a verification failed"
    doc = {
        "horizon": {"exact": {"q": 2, "num": 3000}},
        "entries": [{"length": {"exact": length}, "orientation": "preserving"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(command + ["--spectrum", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("where", ["entry", "horizon"])
@pytest.mark.parametrize("q, num, named", [
    (10, 10**308, f"{10**308}*log(10)"),
    (2, 10**400, f"{10**400}*log(2)"),
    # base 4 is 2 with the multiplier doubled, past the 4300 digits str() of an int takes
    (4, 6 * 10**4299, "12" + "0" * 4299 + "*log(2)"),
], ids=["10**308*log(10)", "10**400*log(2)", "6*10**4299*log(4)"])
def test_exact_lengths_past_the_float_range_are_usage_errors(tmp_path, capsys, where, q, num, named):
    # the float of 10**308*log(10) is inf, and 10**400 has none: as an entry or as
    # the horizon, either gives the same one line and exit 2
    huge, small = {"exact": {"q": q, "num": num}}, {"exact": {"q": 2, "num": 3}}
    doc = {"horizon": huge if where == "horizon" else small,
           "entries": [{"length": huge if where == "entry" else small, "orientation": "preserving"}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["weights", "--spectrum", str(path)]) == 2
    assert main(["compare", "--a", str(path), "--b", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: exact length {named} is past the float range"] * 2


MALFORMED = "error: malformed document: "


@pytest.mark.parametrize(
    "entries, message",
    [
        ([{"length": 5, "orientation": "preserving"}], MALFORMED),
        ([{"orientation": "preserving"}], MALFORMED),
        ({"a": 1}, MALFORMED),
        ([{"length": {"numeric": None}, "orientation": "preserving"}], MALFORMED),
        (
            [
                {
                    "length": {"exact": {"q": 2, "num": True}},
                    "orientation": "preserving",
                    "nu": True,
                    "multiplicity": True,
                }
            ],
            "error: num must be an integer, got True",
        ),
        (
            [{"length": {"numeric": 1.0}, "orientation": "preserving", "nu": True}],
            "error: nu must be an integer, got True",
        ),
        (
            [{"length": {"numeric": 1.0}, "orientation": "preserving", "multiplicity": True}],
            "error: multiplicity must be an integer, got True",
        ),
        (
            [{"length": {"numeric": True}, "orientation": "preserving"}],
            "error: numeric must be a number, got True",
        ),
        # a JSON string is no number, although float() would parse it
        (
            [{"length": {"numeric": "1.5"}, "orientation": "preserving"}],
            "error: numeric must be a number, got '1.5'",
        ),
        (
            [{"length": {"numeric": "  2.0 "}, "orientation": "preserving"}],
            "error: numeric must be a number, got '  2.0 '",
        ),
        # an int past the float range has no finite float, as an entry or as the horizon
        (
            [{"length": {"numeric": 10**400}, "orientation": "preserving"}],
            "error: numeric length must be positive and finite, got inf",
        ),
        (
            {"horizon": {"numeric": 10**400}, "entries": []},
            "error: numeric length must be positive and finite, got inf",
        ),
    ],
    ids=[
        "length-not-an-object",
        "no-length",
        "entries-not-a-list",
        "numeric-null",
        "boolean-counts",
        "boolean-nu",
        "boolean-multiplicity",
        "boolean-numeric",
        "string-numeric",
        "padded-string-numeric",
        "numeric-entry-past-float-range",
        "numeric-horizon-past-float-range",
    ],
)
def test_malformed_document_is_usage_error(tmp_path, capsys, entries, message):
    # a malformed message is checked by its prefix, any other one whole; a case with a horizon
    # is the whole document
    path = tmp_path / "bad.json"
    doc = entries if "horizon" in entries else {"horizon": {"numeric": 5.0}, "entries": entries}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["weights", "--spectrum", str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(message) if message == MALFORMED else line == message


@pytest.mark.parametrize(
    "command, message",
    [
        (["weights", "--epsilon", "inf"], "error: tolerance must be positive and finite, got inf"),
        (["weights", "--epsilon", "nan"], "error: tolerance must be positive and finite, got nan"),
        (
            ["enumerate", "--epsilon", "inf"],
            "error: dedup_tolerance must be positive and finite, got inf",
        ),
        (["dirichlet", "--sigma", "nan"], "error: s must be finite, got (nan+0j)"),
        (["dirichlet", "--sigma=-inf"], "error: s must be finite, got (-inf+0j)"),
        (["dirichlet", "--sigma", "2", "--t", "inf"], "error: s must be finite, got (2+infj)"),
        (["enumerate", "--cutoff", "nan"], "error: length_cutoff must be positive and finite, got nan"),
        (["enumerate", "--cutoff", "inf"], "error: length_cutoff must be positive and finite, got inf"),
    ],
)
def test_non_finite_epsilon_is_usage_error(tmp_path, capsys, command, message):
    spec = tmp_path / "spec.json"
    with open(spec, "w") as fp:
        entries = [GeodesicEntry(Numeric(l), Orientation.PRESERVING) for l in (1.0, 3.0)]
        dump_spectrum(LengthTwistSpectrum(entries, Numeric(5.0)), fp)
    gens = tmp_path / "gens.json"
    with open(gens, "w") as fp:
        dump_generators([Isometry(2.0, 1.0, 1.0, 1.0)], fp)
    inputs = ["--generators", str(gens)] if command[0] == "enumerate" else ["--spectrum", str(spec)]
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(command + inputs + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("l", [1e-160, 1e-170, 1e-300])
def test_dirichlet_tiny_numeric_length(tmp_path, capsys, l):
    # (cosh l - 1)/cosh l underflows below l ~ 1e-154; the series term does not
    path = tmp_path / "tiny.json"
    entry = GeodesicEntry(Numeric(l), Orientation.PRESERVING)
    with open(path, "w") as fp:
        dump_spectrum(LengthTwistSpectrum([entry], Numeric(1.0)), fp)
    capsys.readouterr()
    assert main(["dirichlet", "--spectrum", str(path), "--sigma", "2.0", "--t", "1.0"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = dict(line.split(": ") for line in out.splitlines()[1:])
    got = complex(float(lines["real"]), float(lines["imag"]))
    with mpmath.workdps(700):
        x = mpmath.mpf(l)
        c = mpmath.cosh(x)
        ref = complex(x * mpmath.sqrt(c / (c - 1)) * mpmath.power(c, -mpmath.mpc(2.0, 1.0)))
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("nu, m", [(10**400, 1), (2**1030 + 1, 1), (10**400, 10**400)],
                         ids=["10**400", "2**1030+1", "m=nu=10**400"])
@pytest.mark.parametrize("command", [["weights"], ["dirichlet", "--sigma", "2"]], ids=["weights", "dirichlet"])
def test_huge_nu_of_a_reversing_numeric_type(tmp_path, capsys, command, nu, m):
    # W = m * tanh(0.75) / nu, correctly rounded: 0.0 or a subnormal for m = 1 (t / nu in
    # floats raises on nu), tanh(0.75) itself for m = nu (m * t in floats raises on m)
    w = float(m * Fraction(math.tanh(0.75)) / nu)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"horizon": {"numeric": 5}, "entries": [
        {"length": {"numeric": 1.5}, "orientation": "reversing", "nu": nu, "multiplicity": m}]}))
    capsys.readouterr()
    assert main(command + ["--spectrum", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    if command == ["weights"]:
        assert out == f"total weight function up to horizon 5.0:\n  l=1.5: W={w!r}\n"
    elif m == 1:
        d = w * _series_term(1.5, complex(2.0, 0.0))
        assert out.splitlines()[1:] == [f"real: {d.real:.15g}", f"imag: {d.imag:.15g}"]
    else:  # D(2) = tanh(0.75) * 1.5 * (c / (c - 1))**(1/2) * c**-2 at c = cosh(1.5)
        lines = dict(line.split(": ") for line in out.splitlines()[1:])
        with mpmath.workdps(40):
            c = mpmath.cosh(mpmath.mpf(1.5))
            ref = float(mpmath.tanh(mpmath.mpf(0.75)) * 1.5 * mpmath.sqrt(c / (c - 1)) / c**2)
        assert abs(float(lines["real"]) - ref) <= 1e-12 * ref and float(lines["imag"]) == 0.0


@pytest.mark.parametrize("command, length, m", [
    (["weights"], 1.5, 10**400),  # W = 10**400 * tanh(0.75) is past the float range
    (["dirichlet", "--sigma", "2"], 1.5, 10**400),  # so is its term
    (["dirichlet", "--sigma", "2"], 5e-324, 1),  # tanh(l/2) is 0: a zero root
    (["dirichlet", "--sigma=-1"], 800.0, 1),  # cosh(800)**1 overflows
], ids=["weights-huge-W", "dirichlet-huge-W", "dirichlet-zero-root", "dirichlet-overflow"])
def test_values_past_the_float_range_are_usage_errors(tmp_path, capsys, command, length, m):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"horizon": {"numeric": 1000}, "entries": [
        {"length": {"numeric": length}, "orientation": "reversing", "multiplicity": m}]}))
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main(command + ["--spectrum", str(path), "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("length, nu, m", [(5.0, 1, 10**308), (750.0, 10**450, 10**400)],
                         ids=["product-past-the-float-range", "term-past-the-float-range"])
def test_dirichlet_terms_past_the_float_range(tmp_path, capsys, length, nu, m):
    # at 5.0, 1e308 times the finite term 370 is past the float range, and so is its log-path
    # term: exit 2; at 750, cosh(750) is past it but m / nu = 1e-50 brings the term back
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"horizon": {"numeric": 1000}, "entries": [
        {"length": {"numeric": length}, "orientation": "preserving", "nu": nu, "multiplicity": m}]}))
    capsys.readouterr()
    code = main(["dirichlet", "--spectrum", str(path), "--sigma=-1"])
    stdout, stderr = capsys.readouterr()
    if length == 5.0:
        assert code == 2 and stdout == "" and len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
        return
    assert code == 0 and stderr.startswith("warning: ")
    lines = dict(line.split(": ") for line in stdout.splitlines()[1:])
    with mpmath.workdps(40):
        c = mpmath.cosh(mpmath.mpf(750))
        ref = float(mpmath.mpf(10) ** -50 * 750 * mpmath.sqrt(c / (c - 1)) * c)
    assert abs(float(lines["real"]) - ref) <= 1e-12 * ref and float(lines["imag"]) == 0.0


@pytest.mark.parametrize("nums", [[2000], [1, 2000]])
def test_dirichlet_long_exact_length(tmp_path, capsys, nums):
    # cosh(l) at l = 2000*log(2) is past the float range; the series term is not
    doc = {
        "horizon": {"exact": {"q": 2, "num": 3000}},
        "entries": [
            {"length": {"exact": {"q": 2, "num": n}}, "orientation": "preserving"} for n in nums
        ],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["dirichlet", "--spectrum", str(path), "--sigma", "1.5", "--t", "2.0"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = dict(line.split(": ") for line in out.splitlines()[1:])
    got = complex(float(lines["real"]), float(lines["imag"]))
    with mpmath.workdps(30):
        ref = 0
        for n in nums:
            l = n * mpmath.log(2)
            c = mpmath.cosh(l)
            ref += l * mpmath.sqrt(c / (c - 1)) * mpmath.power(c, -mpmath.mpc(1.5, 2.0))
        ref = complex(ref)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_flat_verify_output_deterministic(tmp_path, capsys):
    blobs = []
    for name in ("x.csv", "y.csv"):
        p = tmp_path / name
        assert main(["flat-verify", "--family", "hex", "--max-norm", "50", "--out", str(p)]) == 0
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_compare_reads_the_table_within_epsilon(tmp_path, capsys):
    # 3.0005 is within --epsilon 1e-3 of the horizon 3.0 in both spectra and in their table
    a = LengthTwistSpectrum([GeodesicEntry(Numeric(3.0005), Orientation.PRESERVING)], Numeric(3.0), 1e-3)
    b = LengthTwistSpectrum([], Numeric(3.0))
    pa, pb, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "r.csv"
    for p, s in ((pa, a), (pb, b)):
        with open(p, "w") as fp:
            dump_spectrum(s, fp)
    assert main(["compare", "--a", str(pa), "--b", str(pb), "--epsilon", "1e-3", "--out", str(out)]) == 1
    assert out.read_text() == 'length,a,b\n"{""numeric"": 3.0005}",1,0\n'
    assert capsys.readouterr().err == ""


def test_compare_horizon_mismatch_is_usage_error(tmp_path, capsys):
    a = LengthTwistSpectrum([], Numeric(5.0))
    b = LengthTwistSpectrum([], Numeric(6.0))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    for p, s in ((pa, a), (pb, b)):
        with open(p, "w") as fp:
            dump_spectrum(s, fp)
    assert main(["compare", "--a", str(pa), "--b", str(pb)]) == 2
    capsys.readouterr()


def _document_commands(path, valid):
    """Every subcommand that reads a document, each given path."""
    return [
        ["compare", "--a", path, "--b", valid],
        ["weights", "--spectrum", path],
        ["dirichlet", "--spectrum", path, "--sigma", "2.0"],
        ["enumerate", "--generators", path, "--max-word-length", "3", "--cutoff", "5.0"],
    ]


@pytest.mark.parametrize("command", range(4), ids=["compare", "weights", "dirichlet", "enumerate"])
def test_deeply_nested_document_is_usage_error(tmp_path, capsys, command):
    # past the JSON parser's recursion limit: one line of error, not a traceback with exit 1
    path, out = tmp_path / "deep.json", tmp_path / "out.csv"
    path.write_text("[" * 100000 + "]" * 100000)
    capsys.readouterr()
    assert main(_document_commands(str(path), str(path))[command] + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: malformed document: nested too deeply\n")
    assert not out.exists()


def test_exact_integers_print_past_the_conversion_bound(tmp_path, capsys):
    # c_n of q = 10 at n = 4310 has more than 4300 digits, the interpreter's default bound
    bound = sys.get_int_max_str_digits()
    c_n = str(Decimal(necklace_count(10, 4310)))  # Decimal prints an int whole under the bound
    for fmt in ("csv", "json"):
        out = tmp_path / f"rows.{fmt}"
        assert main(["scenario", "--q", "10", "--n", "4310", "--out", str(out), "--format", fmt]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(", " + c_n)
        if fmt == "csv":
            got = out.read_text().splitlines()[-1].split(",")[1]
        else:
            got = str(json.loads(out.read_text(), parse_int=Decimal)[-1]["c_n"])
        assert got == c_n
        assert sys.get_int_max_str_digits() == bound
    # W = (10**5000 - 1)/(10**5000 + 1) of one reversing type at 5000*log(10)
    length = {"exact": {"q": 10, "num": 5000}}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"horizon": length, "entries": [{"length": length, "orientation": "reversing"}]}))
    assert main(["weights", "--spectrum", str(path), "--out", str(tmp_path / "w.csv")]) == 0
    assert (tmp_path / "w.csv").read_text().split(",")[-1] == "9" * 5000 + "/1" + "0" * 4999 + "1\n"
    assert sys.get_int_max_str_digits() == bound


def test_document_integers_keep_the_conversion_bound(tmp_path, capsys):
    # a 4301-digit literal in a document is refused, as the interpreter refuses it
    path, out = tmp_path / "big.json", tmp_path / "out.csv"
    entry = '{"length": {"numeric": 1.0}, "orientation": "preserving", "multiplicity": %s}' % ("9" * 4301)
    path.write_text('{"horizon": {"numeric": 5.0}, "entries": [%s]}' % entry)
    capsys.readouterr()
    assert main(["weights", "--spectrum", str(path), "--out", str(out)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: Exceeds the limit (4300 digits)") and not out.exists()


FUZZ_SPECTRUM = {
    "horizon": {"exact": {"q": 2, "num": 6, "den": 1}},
    "entries": [
        {"length": {"exact": {"q": 2, "num": 1, "den": 1}}, "orientation": "preserving", "nu": 1, "multiplicity": 2},
        {"length": {"numeric": 1.5}, "orientation": "reversing", "nu": 1, "multiplicity": 1},
        {"length": {"exact": {"q": 4, "num": 3, "den": 2}}, "orientation": "preserving", "nu": 2, "multiplicity": 1},
    ],
}
FUZZ_GENERATORS = {"generators": [[[2.0, 1.0], [1.0, 1.0]], [[3.0, 0.0], [0.0, -1.0 / 3.0]]]}
MISSING = object()  # the mutation that deletes a key or a list element
MUTATIONS = [True, False, "1", None, [], [1.0], {}, {"q": 2}, -1, -2.5, 0.5, 1.5, 10**400, MISSING]


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _nodes(v, path + (k,))


def _mutated(base, path, value):
    """(whether base is the generator document, base with the node at path set
    to value or deleted)."""
    if not path:
        return base is FUZZ_GENERATORS, {} if value is MISSING else value
    doc = copy.deepcopy(base)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return base is FUZZ_GENERATORS, doc


@st.composite
def mutated_documents(draw):
    base = draw(st.sampled_from([FUZZ_SPECTRUM, FUZZ_GENERATORS]))
    return _mutated(base, draw(st.sampled_from(list(_nodes(base)))), draw(st.sampled_from(MUTATIONS)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_documents(), st.sampled_from(["csv", "json"]))
# W past the float range raises after weights has read the document
@example(_mutated(FUZZ_SPECTRUM, ("entries", 1, "multiplicity"), 10**400), "csv")
def test_mutated_documents_exit_cleanly(tmp_path, capsys, case, fmt):
    # one node of a valid document changed: every subcommand reading it succeeds,
    # fails a verification or gives one line of error, never a traceback
    generators, doc = case
    path, valid, out = tmp_path / "doc.json", tmp_path / "valid.json", tmp_path / "out.csv"
    path.write_text(json.dumps(doc))
    valid.write_text(json.dumps(FUZZ_SPECTRUM))
    commands = _document_commands(str(path), str(valid))
    for argv in commands[3:] if generators else commands[:3]:
        out.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(argv + ["--out", str(out), "--format", fmt])
        assert code in (0, 1, 2)
        if code == 2:
            stdout, stderr = capsys.readouterr()
            assert stdout == "" and len(stderr.splitlines()) == 1 and stderr.startswith("error: ")
            assert not out.exists()


def _golden_inputs(tmp_path):
    """Small fixed inputs for the golden cases, written under tmp_path."""
    numeric = [(1.0, "preserving", 1, 2), (1.5, "reversing", 1, 1), (2.25, "preserving", 2, 1)]
    other = [(1.0, "preserving", 1, 1), (1.5, "reversing", 1, 1), (3.0, "preserving", 1, 1)]
    first, second = to_spectra(build_scenario(2, 8))
    spectra = {
        "exact": LengthTwistSpectrum(
            [GeodesicEntry(Exact(2, 1), Orientation.PRESERVING, multiplicity=2),
             GeodesicEntry(Exact(2, 1), Orientation.REVERSING, multiplicity=2)],
            horizon=Exact(2, 6),
        ),
        "numeric": LengthTwistSpectrum(
            [GeodesicEntry(Numeric(l), Orientation(o), nu, m) for l, o, nu, m in numeric], Numeric(4.0)
        ),
        "other": LengthTwistSpectrum(
            [GeodesicEntry(Numeric(l), Orientation(o), nu, m) for l, o, nu, m in other], Numeric(4.0)
        ),
        "far": LengthTwistSpectrum([], Numeric(6.0)),
        "first": first,
        "second": second,
    }
    paths = {}
    for name, spec in spectra.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fp:
            dump_spectrum(spec, fp)
    paths["gens"] = str(tmp_path / "gens.json")
    with open(paths["gens"], "w") as fp:
        dump_generators([Isometry(2.0, 1.0, 1.0, 1.0), Isometry.diag(3.0, -1.0 / 3.0)], fp)
    paths["bad"] = str(tmp_path / "bad.json")
    with open(paths["bad"], "w") as fp:
        json.dump({"horizon": {"numeric": 4.0},
                   "entries": [{"length": {"numeric": 1.0}, "orientation": "preserving", "nu": 1.5}]}, fp)
    for name, generators in BAD_GENERATORS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fp:
            json.dump({"generators": generators}, fp)
    return paths


# each case runs without --out, with --out in csv and with --out in json; {name} is an input path
GOLDEN_CASES = {
    "scenario": "scenario --q 3 --n 6",
    "scenario-verbose": "scenario --q 2 --n 5 --verbose",
    "flat-square": "flat-verify --family square --max-norm 60",
    "flat-hex": "flat-verify --family hex --max-norm 40",
    "flat-failing-relation": "flat-verify --family square --max-norm 20 --relation S1=S4",
    "flat-family-mismatch": "flat-verify --family square --relation H2+H6=2H3",
    "flat-emit-square": "flat-verify --family square --max-norm 12 --emit-spectrum S4",
    "flat-emit-hex": "flat-verify --family hex --max-norm 12 --emit-spectrum h3",
    "flat-emit-family-mismatch": "flat-verify --family square --max-norm 12 --emit-spectrum H3",
    "flat-emit-unknown": "flat-verify --family square --max-norm 12 --emit-spectrum X9",
    "compare-exact-self": "compare --a {exact} --b {exact}",
    "compare-scenario": "compare --a {first} --b {second}",
    "compare-numeric": "compare --a {numeric} --b {other}",
    "compare-horizon-mismatch": "compare --a {numeric} --b {far}",
    "weights-exact": "weights --spectrum {exact}",
    "weights-numeric": "weights --spectrum {numeric}",
    "weights-scenario": "weights --spectrum {second}",
    "weights-bad-nu": "weights --spectrum {bad}",
    "dirichlet-exact": "dirichlet --spectrum {exact} --sigma 2.0 --t 0.5",
    "dirichlet-numeric": "dirichlet --spectrum {numeric} --sigma 1.5 --t -1.0",
    "dirichlet-diverging": "dirichlet --spectrum {numeric} --sigma 0.5",
    "enumerate": "enumerate --generators {gens} --max-word-length 4 --cutoff 6.0",
    "enumerate-string-entries": "enumerate --generators {gens_strings}",
    "enumerate-generators-object": "enumerate --generators {gens_object}",
    "enumerate-one-row-matrix": "enumerate --generators {gens_one_row}",
}


def _digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()[:12]


def golden_digests(case: str, tmp_path, capsysbinary) -> list:
    """"exit stdout stderr out" for each of no --out, csv and json: the exit code,
    then the leading 12 hex digits of each sha256 ("-" where no file was written)."""
    paths = _golden_inputs(tmp_path)
    argv = GOLDEN_CASES[case].format(**paths).split()
    found = []
    for fmt in (None, "csv", "json"):
        out = tmp_path / f"out.{fmt}"
        extra = [] if fmt is None else ["--out", str(out), "--format", fmt]
        capsysbinary.readouterr()
        code = main(argv + extra)
        stdout, stderr = capsysbinary.readouterr()
        written = out.read_bytes() if out.exists() else None
        found.append(f"{code} {_digest(stdout)} {_digest(stderr)} {_digest(written)}")
    return found


# recorded before the CLI's single --out writer; e3b0c44298fc is the empty stream
GOLDEN = {
    "compare-exact-self": [
        "0 a603222ec818 e3b0c44298fc -",
        "0 a603222ec818 e3b0c44298fc 1cb7895feddc",
        "0 a603222ec818 e3b0c44298fc 91d7bd161e38",
    ],
    "compare-horizon-mismatch": [
        "2 e3b0c44298fc ffa1579d0fcd -",
        "2 e3b0c44298fc ffa1579d0fcd -",
        "2 e3b0c44298fc ffa1579d0fcd -",
    ],
    "compare-numeric": [
        "1 3d762eefd2ef e3b0c44298fc -",
        "1 3d762eefd2ef e3b0c44298fc 24b2ea56fed6",
        "1 3d762eefd2ef e3b0c44298fc aae02353ccb8",
    ],
    "compare-scenario": [
        "1 f15c929c9b3c e3b0c44298fc -",
        "1 f15c929c9b3c e3b0c44298fc e9d8fdfb0d0e",
        "1 f15c929c9b3c e3b0c44298fc 0ec4d0aca443",
    ],
    # the dirichlet warning as one line, and --emit-spectrum checked before any relation
    "dirichlet-diverging": [
        "0 f332997bf61a 5e8351f9fd96 -",
        "0 f332997bf61a 5e8351f9fd96 cef85fdf1678",
        "0 f332997bf61a 5e8351f9fd96 6613e38f2a8a",
    ],
    "dirichlet-exact": [
        "0 635e9523051e e3b0c44298fc -",
        "0 635e9523051e e3b0c44298fc aef95beea79c",
        "0 635e9523051e e3b0c44298fc e924e70e8b2c",
    ],
    "dirichlet-numeric": [
        "0 abd350aa7848 e3b0c44298fc -",
        "0 abd350aa7848 e3b0c44298fc 36caa8a9c50c",
        "0 abd350aa7848 e3b0c44298fc 9183105358ba",
    ],
    "enumerate": [
        "0 e65198ed2a21 e3b0c44298fc -",
        "0 512acfd4a237 e3b0c44298fc 47e2f1165c1c",
        "0 512acfd4a237 e3b0c44298fc ae40be88d90a",
    ],
    # a generator document's fault names its path: one error line, exit 2, nothing written
    "enumerate-generators-object": [
        "2 e3b0c44298fc ac82fc6e86e5 -",
        "2 e3b0c44298fc ac82fc6e86e5 -",
        "2 e3b0c44298fc ac82fc6e86e5 -",
    ],
    "enumerate-one-row-matrix": [
        "2 e3b0c44298fc 4ddc3db2bc2c -",
        "2 e3b0c44298fc 4ddc3db2bc2c -",
        "2 e3b0c44298fc 4ddc3db2bc2c -",
    ],
    "enumerate-string-entries": [
        "2 e3b0c44298fc 78efd1c3d0ba -",
        "2 e3b0c44298fc 78efd1c3d0ba -",
        "2 e3b0c44298fc 78efd1c3d0ba -",
    ],
    "flat-emit-family-mismatch": [
        "2 e3b0c44298fc 232573e45811 -",
        "2 e3b0c44298fc 232573e45811 -",
        "2 e3b0c44298fc 232573e45811 -",
    ],
    "flat-emit-hex": [
        "0 73d95bfb426b e3b0c44298fc -",
        "0 9dbeb70bb7f1 e3b0c44298fc 34274dad40ea",
        "0 9dbeb70bb7f1 e3b0c44298fc 539a21ce52d4",
    ],
    "flat-emit-square": [
        "0 eb986c44966a e3b0c44298fc -",
        "0 aa23d4b2093d e3b0c44298fc dedb40caf9d9",
        "0 aa23d4b2093d e3b0c44298fc 99194f7bd296",
    ],
    "flat-emit-unknown": [
        "2 e3b0c44298fc f3b97994230f -",
        "2 e3b0c44298fc f3b97994230f -",
        "2 e3b0c44298fc f3b97994230f -",
    ],
    "flat-failing-relation": [
        "1 1cbec80a6384 e3b0c44298fc -",
        "1 1cbec80a6384 e3b0c44298fc 55ceeca18cbc",
        "1 1cbec80a6384 e3b0c44298fc 076b571b71b0",
    ],
    "flat-family-mismatch": [
        "2 e3b0c44298fc d8b46729c7e9 -",
        "2 e3b0c44298fc d8b46729c7e9 -",
        "2 e3b0c44298fc d8b46729c7e9 -",
    ],
    "flat-hex": [
        "0 db1351742814 e3b0c44298fc -",
        "0 db1351742814 e3b0c44298fc 8f40389ecd3e",
        "0 db1351742814 e3b0c44298fc b183f63e4464",
    ],
    "flat-square": [
        "0 cdc3bd9002d7 e3b0c44298fc -",
        "0 cdc3bd9002d7 e3b0c44298fc f65f68a4fefa",
        "0 cdc3bd9002d7 e3b0c44298fc 6ba0eaae0910",
    ],
    "scenario": [
        "0 1feab3b9f2f3 e3b0c44298fc -",
        "0 1feab3b9f2f3 e3b0c44298fc 740578b6bb8d",
        "0 1feab3b9f2f3 e3b0c44298fc edb138bb31ac",
    ],
    "scenario-verbose": [
        "0 b6f024411a24 e3b0c44298fc -",
        "0 b6f024411a24 e3b0c44298fc 9bf494f31fa8",
        "0 b6f024411a24 e3b0c44298fc 5c8859053290",
    ],
    "weights-bad-nu": [
        "2 e3b0c44298fc 7fcfd6fdee53 -",
        "2 e3b0c44298fc 7fcfd6fdee53 -",
        "2 e3b0c44298fc 7fcfd6fdee53 -",
    ],
    "weights-exact": [
        "0 ecd9020f0ee3 e3b0c44298fc -",
        "0 ecd9020f0ee3 e3b0c44298fc 4e7a1e993ea0",
        "0 ecd9020f0ee3 e3b0c44298fc ca751762e035",
    ],
    "weights-numeric": [
        "0 32adb5c6cc74 e3b0c44298fc -",
        "0 32adb5c6cc74 e3b0c44298fc 0daf43a2b896",
        "0 32adb5c6cc74 e3b0c44298fc 5f245409c6f9",
    ],
    "weights-scenario": [
        "0 8a70b93f5ee9 e3b0c44298fc -",
        "0 8a70b93f5ee9 e3b0c44298fc 81c41bdcaa1b",
        "0 8a70b93f5ee9 e3b0c44298fc 3239e3d06dfc",
    ],
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_output_bytes_are_pinned(case, tmp_path, capsysbinary):
    assert golden_digests(case, tmp_path, capsysbinary) == GOLDEN[case]


def test_json_output_builds_no_csv_cells(tmp_path, capsys, monkeypatch):
    # compare and enumerate write a JSON document, for which neither a CSV
    # length cell nor the spectrum's entry view is needed
    paths = _golden_inputs(tmp_path)

    def refuse(*args):
        raise AssertionError("built only for CSV output")

    monkeypatch.setattr(interchange, "length_cell", refuse)
    monkeypatch.setattr(LengthTwistSpectrum, "entries", property(refuse))
    for case, code in (("compare-scenario", 1), ("compare-numeric", 1), ("enumerate", 0)):
        argv = GOLDEN_CASES[case].format(**paths).split()
        assert main(argv + ["--out", str(tmp_path / "out.json"), "--format", "json"]) == code


NO_NUMPY_MA = """
import contextlib, io, json, sys
import numpy
eager = "numpy.ma" in sys.modules
from isogeo.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([eager, "numpy.ma" in sys.modules, codes]))
"""


def test_no_subcommand_loads_numpy_ma(tmp_path):
    # numpy 2 imports numpy.ma only on first use (np.unique uses it), and that adds
    # about 1 MB to a run's resident memory; numpy before 2.0 imports it with numpy
    paths = _golden_inputs(tmp_path)
    runs = [GOLDEN_CASES[case].format(**paths).split() + extra for case in sorted(GOLDEN_CASES)
            for extra in ([], ["--out", str(tmp_path / "out.csv")],
                          ["--out", str(tmp_path / "out.json"), "--format", "json"])]
    src = str(Path(isogeo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_MA, json.dumps(runs)], env=env,
                          capture_output=True, text=True, check=True)
    eager, loaded, codes = json.loads(done.stdout)
    assert codes == [int(d.split()[0]) for case in sorted(GOLDEN_CASES) for d in GOLDEN[case]]
    assert loaded == eager
