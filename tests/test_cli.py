import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import locring as L
from locring.cli import _survey_rows, main
from locring.poly import MAX_TABLE_WORK, parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- embed -------------------------------------------------------------------

def test_embed_text_output(capsys):
    code, out, _ = run(capsys, "embed", "--field", "F2",
                       "--poly", "x^2+x+1", "--power", "2")
    assert code == 0
    assert "U = x^2+1" in out
    assert "Q_1 = 1" in out
    assert "ok" in out


def test_embed_json_output(capsys):
    code, out, _ = run(capsys, "embed", "--field", "F2",
                       "--poly", "x^2+x+1", "--power", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["u"] == "x^2+1"
    assert payload["certificate_ok"] is True
    assert payload["morphism"]["q_image"] == "x^2+1"


def test_embed_over_q(capsys):
    code, out, _ = run(capsys, "embed", "--field", "Q",
                       "--poly", "x^2-2", "--power", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q_list"] == ["(-1/4)*x"]


def test_embed_inseparable_is_input_error(capsys):
    code, _, err = run(capsys, "embed", "--field", "F2(t)",
                       "--poly", "x^2+t", "--power", "2")
    assert code == 2
    assert "NotSeparable" in err


def test_embed_reducible_is_input_error(capsys):
    code, _, err = run(capsys, "embed", "--field", "F2",
                       "--poly", "x^2+x", "--power", "2")
    assert code == 2
    assert "NotIrreducible" in err


@pytest.mark.parametrize("field, poly, factor", [
    ("Q", "x^2+2*x+1", "x+1"),
    ("F3(t)", "x^2+2*t*x+t^2", "x+t"),
], ids=["Q", "F3(t)"])
def test_embed_not_squarefree_names_the_cause(capsys, field, poly, factor):
    code, out, err = run(capsys, "embed", "--field", field,
                         "--poly", poly, "--power", "2")
    assert code == 2 and out == ""
    assert "error: NotIrreducible: " in err
    assert f"is not squarefree: gcd(P, P') = {factor}\n" in err


# -- digits ------------------------------------------------------------------

def test_digits_example(capsys):
    code, out, _ = run(capsys, "digits", "--field", "F2",
                       "--poly", "x^2+x+1", "--power", "2",
                       "--element", "x")
    assert code == 0
    assert out.strip() == "[x, 1]"


def test_digits_json(capsys):
    code, out, _ = run(capsys, "digits", "--field", "F3",
                       "--poly", "x^2+1", "--power", "3",
                       "--element", "x^2+1", "--json")
    assert code == 0
    digits = json.loads(out)
    assert len(digits) == 3
    assert digits[0] == "0"


def test_digits_round_trip_via_library(capsys):
    code, out, _ = run(capsys, "digits", "--field", "F3",
                       "--poly", "x^2+1", "--power", "2",
                       "--element", "x^3+2*x+1", "--json")
    assert code == 0
    F3 = L.PrimeField(3)
    ring = L.QuotientRing(parse_poly(F3, "x^2+1"), 2)
    res = ring.at_power(1)
    digits = L.ResidueDigits(ring=ring, digits=tuple(
        res.element(parse_poly(F3, d)) for d in json.loads(out)))
    assert L.from_digits(digits) == ring.element(parse_poly(F3, "x^3+2*x+1"))


# -- lift --------------------------------------------------------------------

def test_lift_search_success(capsys):
    code, out, _ = run(capsys, "lift", "--field", "F3",
                       "--p1", "x^2+1", "--p2", "x^2+x+2", "--power", "3")
    assert code == 0
    assert "Q_f = 2*x+1" in out
    assert "S_f = 1" in out
    assert "verdict: isomorphism" in out


def test_lift_with_explicit_q_negative(capsys):
    code, out, _ = run(capsys, "lift", "--field", "F2",
                       "--p1", "x^3+x+1", "--p2", "x^3+x+1",
                       "--power", "2", "--q", "x^2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["s_f"] == "x^3+x+1"
    assert payload["q_f_derivative_nonzero"] is False
    assert payload["kernel_witness"] == "x^3+x+1"


def test_lift_q_that_starts_with_minus(capsys):
    # argparse reads "--q -x" as two options and exits 2; "--q=-x" is a value
    argv = ["lift", "--field", "Q", "--p1", "x^2-2", "--p2", "x^2-2",
            "--power", "2"]
    code, out, _ = run(capsys, *argv, "--q=-x")
    assert code == 0
    assert "verdict: isomorphism" in out.splitlines()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--q", "-x"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_lift_bad_q_is_input_error(capsys):
    code, _, err = run(capsys, "lift", "--field", "F3",
                       "--p1", "x^2+1", "--p2", "x^2+x+2",
                       "--power", "2", "--q", "x")
    assert code == 2
    assert "NotAMorphism" in err


def test_lift_constant_q_is_not_a_morphism(capsys):
    code, _, err = run(capsys, *LIFT, "--power", "2", "--q", "2")
    _assert_input_error(code, err)
    assert "NotAMorphism" in err


def test_lift_degree_one_is_not_injective(capsys):
    # the one residue morphism sends x to 2, the root of x+1; Q_f is constant
    code, out, _ = run(capsys, "lift", "--field", "F3",
                       "--p1", "x+1", "--p2", "x+2", "--power", "2")
    assert code == 0
    assert out.splitlines()[:6] == [
        "Q_f = 2", "S_f = 0", "Q_f' != 0: False", "gcd(S_f, P2) = 1: False",
        "verdict: not injective", "kernel witness: class of x+1"]


def test_lift_json_morphism_round_trips(capsys):
    code, out, _ = run(capsys, "lift", "--field", "F3",
                       "--p1", "x^2+1", "--p2", "x^2+x+2",
                       "--power", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    f = L.StabilizingMorphism.from_dict(payload["morphism"])
    assert f.source.n == 2
    assert L.certify_isomorphism(f)


# -- find-iso ----------------------------------------------------------------

def test_find_iso_order(capsys):
    code, out, _ = run(capsys, "find-iso", "--field", "F3",
                       "--p1", "x^2+1", "--p2", "x^2+x+2")
    assert code == 0
    assert out.splitlines() == ["q = 2*x+1", "q = x+2"]


def test_find_iso_json(capsys):
    code, out, _ = run(capsys, "find-iso", "--field", "F2",
                       "--p1", "x^3+x+1", "--p2", "x^3+x^2+1", "--json")
    assert code == 0
    assert len(json.loads(out)) == 3


def test_find_iso_frobenius_sigma(capsys):
    code, out, _ = run(capsys, "find-iso", "--field", "F3",
                       "--p1", "x^2+1", "--p2", "x^2+x+2",
                       "--sigma", "frob", "--json")
    # frobenius is trivial on F3, so the same morphisms appear
    assert code == 0
    assert len(json.loads(out)) == 2


def test_find_iso_degree_one(capsys):
    code, out, _ = run(capsys, "find-iso", "--field", "F3",
                       "--p1", "x+1", "--p2", "x+2")
    assert (code, out) == (0, "q = 2\n")


@pytest.mark.parametrize("field, p1, p2, count", [
    ("F2", "x^16+x^5+x^3+x^2+1", "x^16+x^12+x^3+x+1", 16),
    ("F101", "x^4+2", "x^4+3", 4),
], ids=["F2-d16", "F101-d4"])
def test_find_iso_finds_roots_in_polynomial_time(capsys, deadline, field, p1,
                                                 p2, count):
    # 2^16 and 101^4 candidate X-images: far too many to try one by one
    L.find_residue_isomorphisms.cache_clear()
    start = time.perf_counter()
    with deadline(5):
        code, out, _ = run(capsys, "find-iso", "--field", field,
                           "--p1", p1, "--p2", p2)
    assert time.perf_counter() - start < 1
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(set(lines)) == count
    assert all(line.startswith("q = ") for line in lines)


def test_find_iso_tower_coefficients_are_wrapped_once(capsys):
    # a coefficient of F16 that prints as "(a+1)" is not wrapped again
    field = "F2[x]/(x^2+x+1)[x]/(x^2+x+a)"
    code, out, _ = run(capsys, "find-iso", "--field", field,
                       "--p1", "x^2+(a+1)*b*x+a*b",
                       "--p2", "x^2+(a+1)*b*x+a*b", "--sigma", "frob")
    assert code == 0
    assert out.splitlines() == ["q = ((a+1)*b)*x+(a*b)",
                                "q = ((a+1)*b)*x+(a+1)"]
    f16 = L.parse_field(field)
    b, a = f16.gen(), f16.from_base(f16.base.gen())
    assert parse_poly(f16, "((a+1)*b)*x+(a+1)") == L.Poly(f16, (a + 1,
                                                               (a + 1) * b))


def test_find_iso_reducible_is_input_error(capsys):
    code, _, err = run(capsys, "find-iso", "--field", "F2",
                       "--p1", "x^2", "--p2", "x^2+x+1")
    _assert_input_error(code, err)
    assert "NotIrreducible" in err


def test_cli_is_deterministic(capsys):
    argv = ["survey", "--field", "F2", "--max-degree", "2", "--max-power", "2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# -- check -------------------------------------------------------------------

def test_check_valid_morphism_file(tmp_path, capsys):
    F3 = L.PrimeField(3)
    iso = L.rings_isomorphic_separable(parse_poly(F3, "x^2+1"),
                                       parse_poly(F3, "x^2+x+2"), 2)
    path = tmp_path / "iso.json"
    path.write_text(iso.to_json(), encoding="utf-8")
    code, out, _ = run(capsys, "check", "--morphism", str(path))
    assert code == 0
    assert "certificate: ok" in out
    assert "kernel dimension: 0" in out
    assert "isomorphism: True" in out


def test_check_proves_the_law_on_a_729_element_ring(tmp_path, capsys,
                                                   deadline):
    # the law holds on all 729^2 pairs, shown from 729 * 6 of them
    code, text, _ = run(capsys, "lift", "--field", "F3", "--p1", "x^3+2*x+1",
                        "--p2", "x^3+2*x+2", "--power", "2", "--json")
    assert code == 0
    path = tmp_path / "iso.json"
    path.write_text(json.dumps(json.loads(text)["morphism"]),
                    encoding="utf-8")
    with deadline(5):
        code, out, _ = run(capsys, "check", "--morphism", str(path))
    assert code == 0
    assert out.splitlines() == ["certificate: ok",
                                "morphism law: ok (531441 pairs)",
                                "kernel dimension: 0", "isomorphism: True"]


def test_check_noninjective_morphism(tmp_path, capsys):
    F2 = L.PrimeField(2)
    p = parse_poly(F2, "x^3+x+1")
    f = L.residue_morphism_from_Q(p, p, L.IDENTITY, parse_poly(F2, "x^2"))
    path = tmp_path / "frob.json"
    path.write_text(L.lift_morphism(f, 2).to_json(), encoding="utf-8")
    code, out, _ = run(capsys, "check", "--morphism", str(path))
    assert code == 0
    assert "kernel dimension: 3" in out
    assert "isomorphism: False" in out


def test_check_frobenius_fixing_the_field_reads_as_identity(tmp_path, capsys):
    # frob^2 fixes F4, so that morphism is F4-linear like the identity's and
    # check gives its kernel over F4; frob moves F4, so its kernel is over F2
    out = {}
    for sigma in ("id", "frob^2", "frob"):
        code, text, _ = run(capsys, "lift", "--field", "F2[x]/(x^2+x+1)",
                            "--p1", "x+a", "--p2", "x+a", "--sigma", sigma,
                            "--power", "3", "--json")
        assert code == 0
        path = tmp_path / "f4.json"
        path.write_text(json.dumps(json.loads(text)["morphism"]),
                        encoding="utf-8")
        code, out[sigma], _ = run(capsys, "check", "--morphism", str(path))
        assert code == 0
    assert out["frob^2"] == out["id"]
    assert "kernel dimension: 2\n" in out["id"]
    assert "kernel dimension: 4\n" in out["frob"]


TOWER = "F2[x]/(x^2+x+1)[x]/(x^2+x+a)"  # F16 over F4


@pytest.mark.parametrize("p1, p2, kernel", [
    ("x^2+x+a*b", "x^2+b*x+1", 0), ("x+b", "x+a", 4)], ids=["d2", "d1"])
def test_check_reads_a_frobenius_twisted_lift_over_a_tower(tmp_path, capsys,
                                                           p1, p2, kernel):
    # frob moves F16, so check gives the kernel over F2, of the 16 x 16
    # matrix at degree 2 and the 8 x 8 one at degree 1; it agrees with the
    # verdict lift prints
    code, text, _ = run(capsys, "lift", "--field", TOWER, "--p1", p1,
                        "--p2", p2, "--sigma", "frob", "--power", "2",
                        "--json")
    assert code == 0
    payload = json.loads(text)
    assert payload["verdict"] == (kernel == 0)
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(payload["morphism"]), encoding="utf-8")
    code, out, _ = run(capsys, "check", "--morphism", str(path))
    assert code == 0
    assert f"kernel dimension: {kernel}\n" in out
    assert f"isomorphism: {kernel == 0}\n" in out


def test_assumed_irreducibility_is_noted_on_stderr(tmp_path, capsys):
    note = ("note: irreducibility of x^2-1 over Q is assumed, "
            "not verified\n")
    code, out, err = run(capsys, "lift", "--field", "Q", "--p1", "x^2-1",
                         "--p2", "x^2-1", "--power", "2", "--q", "x",
                         "--json")
    assert code == 0 and err == note
    path = tmp_path / "q.json"
    path.write_text(json.dumps(json.loads(out)["morphism"]), encoding="utf-8")
    code, out, err = run(capsys, "check", "--morphism", str(path))
    assert code == 0 and err == note
    assert "isomorphism: True" in out


def test_degree_one_over_q_and_f2t_without_q(capsys):
    # the one residue morphism X -> c1; linear moduli get no note
    code, out, err = run(capsys, "find-iso", "--field", "Q", "--p1", "x-1",
                         "--p2", "x+3")
    assert (code, out, err) == (0, "q = 1\n", "")
    for field, p1, p2 in (("Q", "x-1", "x+3"), ("F2(t)", "x+t", "x+1")):
        code, out, err = run(capsys, "lift", "--field", field, "--p1", p1,
                             "--p2", p2, "--power", "2")
        assert code == 0 and err == ""
        assert "verdict: not injective\n" in out
        assert f"kernel witness: class of {p1}\n" in out


def test_irreducibility_note_skips_linear_moduli(tmp_path, capsys):
    code, out, err = run(capsys, "find-iso", "--field", "Q", "--p1", "x-1",
                         "--p2", "x^2-2")
    assert code == 2 and out == ""
    assert err == ("note: irreducibility of x^2-2 over Q is assumed, not "
                   "verified\nerror: UnsupportedField: residue isomorphism "
                   "search requires a finite field, got Q\n")
    code, out, err = run(capsys, "lift", "--field", "Q", "--p1", "x-1",
                         "--p2", "x+3", "--power", "3", "--json")
    assert code == 0 and err == ""
    path = tmp_path / "q1.json"
    path.write_text(json.dumps(json.loads(out)["morphism"]), encoding="utf-8")
    code, out, err = run(capsys, "check", "--morphism", str(path))
    assert code == 0 and err == ""
    assert "isomorphism: False" in out


def test_no_irreducibility_note_over_finite_fields(tmp_path, capsys):
    code, out, err = run(capsys, "lift", "--field", "F2", "--p1", "x^2+x+1",
                         "--p2", "x^2+x+1", "--power", "2", "--json")
    assert code == 0 and err == ""
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(json.loads(out)["morphism"]), encoding="utf-8")
    code, _, err = run(capsys, "check", "--morphism", str(path))
    assert code == 0 and err == ""


def test_check_corrupted_file_is_input_error(tmp_path, capsys):
    F2 = L.PrimeField(2)
    f = L.embed_residue_field(parse_poly(F2, "x^2+x+1"), 2)
    payload = f.to_dict()
    payload["q_image"] = "x"  # not a well-defined X-image mod P^2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, _, err = run(capsys, "check", "--morphism", str(path))
    assert code == 2
    assert "NotWellDefined" in err


def test_check_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--morphism", str(tmp_path / "no.json"))
    assert code == 2
    assert err


def _assert_input_error(code, err):
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("data", [
    {"source": {"field": "F2", "p": "x^2+x+1", "n": 1},
     "target": {"field": "F2", "p": "x^2+x+1", "n": 1}, "q_image": "x"},
    [1, 2],
    {"source": "F2", "target": {}, "sigma": "id", "q_image": "x"},
], ids=["no-sigma", "list", "ring-not-object"])
def test_check_malformed_schema_is_input_error(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "check", "--morphism", str(path))
    _assert_input_error(code, err)


def test_check_invalid_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "check", "--morphism", str(path))
    _assert_input_error(code, err)


# -- nesting past the interpreter's recursion limit --------------------------

def _nested(depth):
    return "(" * depth + "x" + ")" * depth


DIGITS_F3 = ["digits", "--field", "F3", "--poly", "x^2+1", "--power", "2"]


def _assert_one_input_error(code, out, err):
    _assert_input_error(code, err)
    assert len(err.splitlines()) == 1 and not out


@pytest.mark.parametrize("element", [
    _nested(300), "-" * 1500 + "x",
], ids=["parentheses", "minus-signs"])
def test_deeply_nested_element_is_input_error(capsys, element):
    code, out, err = run(capsys, *DIGITS_F3, f"--element={element}")
    _assert_one_input_error(code, out, err)
    assert "nested too deeply" in err


def test_nesting_that_parsed_before_still_parses(capsys):
    expected = run(capsys, *DIGITS_F3, "--element", "x")
    assert expected[0] == 0
    assert run(capsys, *DIGITS_F3, "--element", _nested(150)) == expected


@pytest.mark.parametrize("text", [
    json.dumps({"source": {"field": "F3", "p": _nested(300), "n": 1},
                "target": {"field": "F3", "p": "x^2+1", "n": 1},
                "sigma": "id", "q_image": "x"}),
    "[" * 100000,
], ids=["nested-modulus", "nested-json"])
def test_check_deeply_nested_input_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "check", "--morphism", str(path))
    _assert_one_input_error(code, out, err)


# -- input errors in the other commands ---------------------------------------

LIFT = ["lift", "--field", "F3", "--p1", "x^2+1", "--p2", "x^2+x+2"]


@pytest.mark.parametrize("argv", [
    ["embed", "--field", "F4", "--poly", "x^2+x+1", "--power", "2"],
    ["embed", "--field", "F2", "--poly", "x^2+x+1", "--power", "0"],
    ["embed", "--field", "F3", "--poly", "2*x^2+1", "--power", "2"],
    ["embed", "--field", "F2[x]/(x)", "--poly", "x^2+x+1", "--power", "2"],
    ["embed", "--field", "F3(t)[x]/(x^2+t)", "--poly", "x+1", "--power", "2"],
    ["embed", "--field", "F3317044064679887385961983", "--poly", "x^2+1",
     "--power", "2"],
    ["digits", "--field", "F2", "--poly", "x^2+x+1", "--power", "0",
     "--element", "x"],
    LIFT + ["--power", "0"],
    LIFT + ["--power", "2", "--sigma", "frob^x"],
    LIFT + ["--power", "2", "--sigma", "frob^-1"],
], ids=["embed-F4", "embed-power0", "embed-nonmonic", "embed-ext-degree1",
        "embed-ext-of-F3(t)", "embed-char-too-large", "digits-power0",
        "lift-power0", "lift-sigma-x", "lift-sigma-negative"])
def test_input_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    _assert_input_error(code, err)


def test_embed_61_bit_prime(capsys):
    code, out, _ = run(capsys, "embed", "--field", "F2305843009213693951",
                       "--poly", "x^2+1", "--power", "2")
    assert code == 0
    assert "certificate P(U) = R_cert * P^2: ok" in out


# -- survey ------------------------------------------------------------------

def test_survey_stdout_csv(capsys):
    code, out, _ = run(capsys, "survey", "--field", "F2",
                       "--max-degree", "2", "--max-power", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # degree 1: 2 polys -> 4 pairs; degree 2: only x^2+x+1 -> 1 pair; 2 powers
    assert len(rows) == 10
    assert list(rows[0]) == ["field", "p1", "p2", "degree", "n",
                             "q_f", "s_f", "verdict", "kernel_dim"]
    for row in rows:
        assert row["field"] == "F2"
        assert (row["verdict"] == "True") == (row["kernel_dim"] == "0")


def test_survey_output_file(tmp_path, capsys):
    path = tmp_path / "survey.csv"
    code, _, _ = run(capsys, "survey", "--field", "F3",
                     "--max-degree", "2", "--max-power", "3",
                     "--output", str(path))
    assert code == 0
    rows = list(csv.DictReader(path.open(encoding="utf-8")))
    # degree 1: 3^2 pairs * 3 powers; degree 2: 3^2 pairs * 3 powers
    assert len(rows) == 54
    cross = [r for r in rows if r["p1"] == "x^2+1" and r["p2"] == "x^2+x+2"]
    assert [r["n"] for r in cross] == ["1", "2", "3"]
    assert all(r["q_f"] == "2*x+1" and r["verdict"] == "True" for r in cross)


def test_survey_with_sigma(capsys):
    code, out, _ = run(capsys, "survey", "--field", "F2",
                       "--max-degree", "2", "--max-power", "2",
                       "--sigma", "frob")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # frobenius is trivial on F2, so each pair appears twice
    assert len(rows) == 20


@pytest.mark.parametrize("field_text, max_degree, sigma", [
    ("F2", 3, "id"), ("F3", 2, "id"), ("F2[x]/(x^2+x+1)", 2, "frob"),
])
def test_survey_rows_agree_with_lift(capsys, field_text, max_degree, sigma):
    # every row, degree 1 included, is the lift data that `lift --q` prints
    field = L.parse_field(field_text)
    auto = L.FieldAutomorphism.parse(sigma)
    rows = _survey_rows(field, max_degree, 3, [auto])
    assert {r["degree"] for r in rows} == set(range(1, max_degree + 1))
    for r in rows:
        p1, p2, q_f, s_f = (parse_poly(field, r[key])
                            for key in ("p1", "p2", "q_f", "s_f"))
        assert L.apply_automorphism_to_poly(auto, p1).compose(q_f) == s_f * p2
        code, out, _ = run(capsys, "lift", "--field", field_text,
                           "--p1", r["p1"], "--p2", r["p2"],
                           "--power", str(r["n"]), "--q", r["q_f"],
                           "--sigma", sigma)
        verdict = "isomorphism" if r["verdict"] else "not injective"
        assert code == 0
        assert out.splitlines()[:2] == [f"Q_f = {r['q_f']}",
                                        f"S_f = {r['s_f']}"]
        assert f"verdict: {verdict}\n" in out


@pytest.mark.parametrize("bounds", [("0", "2"), ("-1", "2"), ("2", "0")],
                         ids=["max-degree0", "max-degree-1", "max-power0"])
def test_survey_rejects_empty_bounds(capsys, bounds):
    code, out, err = run(capsys, "survey", "--field", "F2", "--max-degree",
                         bounds[0], "--max-power", bounds[1])
    _assert_input_error(code, err)
    assert ">= 1" in err and not out


@pytest.mark.parametrize("bounds", [("40", "1"), ("2", "100000")],
                         ids=["max-degree40", "max-power100000"])
def test_survey_rejects_work_past_the_bound(capsys, bounds):
    # charged before any irreducible is enumerated or any lift computed
    start = time.perf_counter()
    code, out, err = run(capsys, "survey", "--field", "F2", "--max-degree",
                         bounds[0], "--max-power", bounds[1])
    assert time.perf_counter() - start < 1
    _assert_input_error(code, err)
    assert "work bound" in err and not out


def test_survey_rejects_infinite_field(capsys):
    code, _, err = run(capsys, "survey", "--field", "Q",
                       "--max-degree", "1", "--max-power", "1")
    assert code == 2
    assert "finite" in err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_and_stderr_exit_2(monkeypatch):
    # the error report on a closed stderr must not escape as an exception
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", _ClosedPipe())
    assert main(["survey", "--field", "F3", "--max-degree", "2",
                 "--max-power", "2"]) == 2


def test_piped_survey_exits_2_when_the_reader_exits_early():
    # head -c 0 exits before the survey writes, closing the pipe that
    # carries both streams; a buffered stdout fails only when flushed
    src = pathlib.Path(L.__file__).parents[1]
    script = (f'"{sys.executable}" -m locring.cli survey --field F3 '
              '--max-degree 2 --max-power 2 2>&1 | head -c 0; '
              'exit "${PIPESTATUS[0]}"')
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run(["bash", "-c", script], timeout=60,
                            env={**env, "PYTHONPATH": str(src)})
    assert result.returncode == 2


# -- demo-inseparable --------------------------------------------------------

def test_demo_inseparable(capsys):
    code, out, _ = run(capsys, "demo-inseparable")
    assert code == 0
    assert "P' = 0" in out
    assert "gcd(P', P) = x^2+t != 1" in out
    assert "hensel_root_series: NotSeparable" in out
    assert "rings_isomorphic_separable: NotSeparable" in out


# -- sizes from outside input are bounded ------------------------------------

def _assert_bounded(capsys, deadline, *argv, expected="bound 1024"):
    start = time.perf_counter()
    with deadline(5):
        code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    _assert_input_error(code, err)
    assert expected in err


@pytest.mark.parametrize("argv", [
    ["embed", "--field", "F2", "--poly", "x^1000000000+x+1", "--power", "1"],
    ["digits", "--field", "F2", "--poly", "x^2+x+1", "--power", "1000000000",
     "--element", "x"],
    LIFT + ["--power", "1000000000"],
], ids=["embed-exponent", "digits-power", "lift-power"])
def test_outside_sizes_are_bounded(capsys, deadline, argv):
    _assert_bounded(capsys, deadline, *argv)


LONG = "1" * 5000  # past Python's 4,300-digit limit for int() of a string


@pytest.mark.parametrize("argv", [
    ["embed", "--field", "Q", "--poly", f"x^2+{LONG}", "--power", "1"],
    ["embed", "--field", f"F{LONG}", "--poly", "x^2+1", "--power", "1"],
    LIFT + ["--power", "1", "--sigma", f"frob^{LONG}"],
], ids=["coefficient", "characteristic", "sigma-exponent"])
def test_long_digit_strings_are_input_errors(capsys, deadline, argv):
    _assert_bounded(capsys, deadline, *argv, expected="ParseError")


def test_tower_descriptor_work_is_bounded(capsys, deadline):
    # eight degree-2 levels over F2: verifying the moduli one by one took
    # 7.5 s, and each level about 9 times the one below
    names = "abcdefg"
    field = "F2[x]/(x^2+x+1)" + "".join(f"[x]/(x^2+{v}*x+1)" for v in names)
    assert len(field) == 120
    _assert_bounded(capsys, deadline, "embed", "--field", field,
                    "--poly", "x+1", "--power", "1",
                    expected=f"bound {MAX_TABLE_WORK}")


def test_check_ring_power_is_bounded(tmp_path, capsys, deadline):
    ring = {"field": "F2", "p": "x^2+x+1", "n": 1000000000}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"source": ring, "target": ring, "sigma": "id",
                                "q_image": "x"}), encoding="utf-8")
    _assert_bounded(capsys, deadline, "check", "--morphism", str(path))


def test_long_rationals_are_not_printed(capsys, deadline):
    # 99999^1000 has 5,000 digits: it parses, but cannot be printed
    _assert_bounded(capsys, deadline, "embed", "--field", "Q",
                    "--poly", "x^2+99999^1000", "--power", "1",
                    expected="4,300")


def test_check_morphism_work_is_bounded(tmp_path, capsys, deadline):
    # D = E = 1024 and deg q = 1023, so the table of powers needs
    # D*E*(deg q + 1) = 2^30 products
    ring = {"field": "F3", "p": "x^2+1", "n": 512}
    q = "+".join(f"x^{i}" for i in range(1023, 1, -1)) + "+x+1"
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"source": ring, "target": ring, "sigma": "id",
                                "q_image": q}), encoding="utf-8")
    _assert_bounded(capsys, deadline, "check", "--morphism", str(path),
                    expected=f"bound {MAX_TABLE_WORK}")


def test_lift_with_constant_image_is_not_bounded(capsys):
    # D = E = 300 with a constant X-image: the table of powers needs only
    # D*E*(deg q + 1) = 90,000 products
    code, out, _ = run(capsys, "lift", "--field", "F3", "--p1", "x+1",
                       "--p2", "x+2", "--power", "300")
    assert code == 0
    assert "verdict: not injective" in out


def test_check_matrix_elimination_is_bounded(tmp_path, capsys, deadline):
    # the same morphism builds cheaply, but its 300 x 300 matrix needs
    # D'*E'*min(D', E') = 27,000,000 products to eliminate
    ring = {"field": "F3", "p": "x+1", "n": 300}
    target = {"field": "F3", "p": "x+2", "n": 300}
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"source": ring, "target": target,
                                "sigma": "id", "q_image": "2"}),
                    encoding="utf-8")
    _assert_bounded(capsys, deadline, "check", "--morphism", str(path),
                    expected=f"bound {MAX_TABLE_WORK}")


# -- recorded output ---------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "data" / "cli_golden.json"


def test_cli_output_matches_recording(tmp_path, capsys):
    """Replay every recorded invocation: stdout and exit code must be
    byte-identical.  A ``check`` record carries its morphism JSON, written
    to a file that replaces the ``{morphism}`` placeholder."""
    path = tmp_path / "morphism.json"
    for record in json.loads(GOLDEN.read_text(encoding="utf-8")):
        argv = record["argv"]
        if "morphism" in record:
            path.write_text(record["morphism"], encoding="utf-8")
            argv = [str(path) if a == "{morphism}" else a for a in argv]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (record["exit"], record["stdout"]), argv
