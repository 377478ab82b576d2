"""The four workloads: how each builds its inputs from the seed, and what one
case runs and checks.

A workload is a fixed list of case classes with a fixed number of cases in
each; the seed only chooses the polynomials, pairs or elements that fill
them.
``build`` runs during set-up; ``run`` runs one case, raises ``CheckFailed``
when an output is wrong, and returns the case's canonical output (text that
goes into the output digest).

Why each workload exists, and which layers it stresses, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import os
import time
from collections import namedtuple

import oracle

Case = namedtuple("Case", "id cls args")

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")


class CheckFailed(Exception):
    """An output of the code under test is wrong."""


class InputError(Exception):
    """The generated inputs are not what the workload specifies."""


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def irreducibles(lib, tr, field, q, d):
    """enumerate_irreducibles(F_q, d), validated against Gauss's count."""
    polys = tr.call("poly.enumerate_irreducibles",
                    lib.poly.enumerate_irreducibles, field, d)
    expected = oracle.gauss_count(q, d)
    if len(polys) != expected:
        raise InputError(
            f"enumerate_irreducibles({lib.fields.format_field(field)}, {d}) "
            f"gave {len(polys)} polynomials; Gauss's formula gives {expected}")
    return polys


def poly_text(coeffs):
    """Library text syntax for ascending coefficient strings."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == "0":
            continue
        terms.append(f"({c})" if i == 0 else
                     f"({c})*x" if i == 1 else f"({c})*x^{i}")
    return "+".join(terms) or "0"


def _elements(lib, ring, rng, coeff, count):
    field = ring.field
    return [ring.element(lib.poly.parse_poly(
        field, poly_text([coeff(rng) for _ in range(ring.dimension)])))
        for _ in range(count)]


def _fmt(lib, a):
    return lib.poly.format_poly(a)


# ---------------------------------------------------------------------------
# digits: criterion 2's hot loop over prime fields.

DIGITS_CLASSES = ((3, 3), (3, 4), (2, 4))  # (q, deg P)
DIGITS_POWERS = range(2, 7)
ELEMENTS = 3


def build_digits(lib, rng, tr):
    """Every irreducible of each class at every power; the seed picks the
    elements.  (Picking a few polynomials per class made the run-to-run
    spread depend on which ones were picked.)"""
    cases = []
    for q, d in DIGITS_CLASSES:
        field = lib.fields.PrimeField(q)
        polys = irreducibles(lib, tr, field, q, d)
        for k in DIGITS_POWERS:
            for p in polys:
                ring = lib.quotient.QuotientRing(p, k)
                elems = _elements(lib, ring, rng,
                                  lambda r: str(r.randrange(q)), ELEMENTS)
                cases.append(Case(f"F{q}:{_fmt(lib, p)}:k{k}", f"F{q}d{d}k{k}",
                                  (p, k, ring, elems, False)))
    return cases


def run_digits(case, lib, tr):
    """Embedding, certified root series, digit round trips and products."""
    p, k, ring, elems, assume = case.args
    h = lib.hensel
    rs = tr.call("hensel.hensel_root_series", h.hensel_root_series, p, k)
    f = tr.call("hensel.embed_residue_field", h.embed_residue_field, p, k,
                assume_irreducible=assume)
    check((p.compose(rs.u) - rs.r_cert * p ** k).is_zero(),
          "P(U) != R_cert * P^k")
    p_class = ring.element(p)
    out = [_fmt(lib, rs.u)]
    digits = []
    for a in elems:
        d = tr.call("hensel.to_digits", h.to_digits, a)
        check(len(d) == k, "wrong number of digits")
        back = tr.call("hensel.from_digits", h.from_digits, d)
        check(back == a, "from_digits(to_digits(a)) != a")
        # the defining identity, through the embedding and ring arithmetic
        acc, pj = ring.zero(), ring.one()
        for dj in d:
            acc = acc + f(dj) * pj
            pj = pj * p_class
        check(acc == a, "a != sum embed(a_j) * P^j")
        digits.append(d)
        out.append([_fmt(lib, x.rep) for x in d])
    for i in range(len(elems) - 1):
        ab = tr.call("quotient.mul", operator.mul, elems[i], elems[i + 1])
        dab = tr.call("hensel.to_digits", h.to_digits, ab)
        prod = tr.call("hensel.digits_mul", h.digits_mul,
                       digits[i], digits[i + 1])
        check(dab.digits == prod.digits, "to_digits(a*b) != digits_mul")
        out.append([_fmt(lib, x.rep) for x in dab])
    return out


# ---------------------------------------------------------------------------
# search: the brute-force residue isomorphism search, every call a miss.

# (q, deg P, cases); the counts put p50 inside F7 d3 and p90 near the middle
# of F2 d9, whose ten pairs keep p90 from resting on one or two of them
SEARCH_CLASSES = ((3, 4, 8), (5, 3, 8), (7, 3, 20), (3, 5, 3), (2, 7, 3),
                  (2, 8, 2), (3, 6, 2), (2, 9, 10))


def _pairs(rng, polys, count):
    pairs = [(a, b) for a in range(len(polys)) for b in range(len(polys))]
    return [(polys[a], polys[b]) for a, b in rng.sample(pairs, count)]


def build_search(lib, rng, tr):
    cases = []
    for q, d, count in SEARCH_CLASSES:
        field = lib.fields.PrimeField(q)
        polys = irreducibles(lib, tr, field, q, d)
        for p1, p2 in _pairs(rng, polys, count):
            ints = (oracle.int_poly(_fmt(lib, p1), q),
                    oracle.int_poly(_fmt(lib, p2), q))
            cases.append(Case(f"F{q}:{_fmt(lib, p1)}->{_fmt(lib, p2)}",
                              f"F{q}d{d}", (p1, p2, q, d, ints)))
    rng.shuffle(cases)
    return cases


def run_search(case, lib, tr):
    """Exactly d distinct morphisms, each re-checked over plain ints:
    P1(Q_f) = S_f * P2."""
    p1, p2, q, d, (p1_int, p2_int) = case.args
    found = tr.call("lift.find_residue_isomorphisms",
                    lib.lift.find_residue_isomorphisms, p1, p2)
    check(len(found) == d, f"{len(found)} morphisms, expected {d}")
    out = [[_fmt(lib, f.q_image), _fmt(lib, f.s_cert)] for f in found]
    check(len({qf for qf, _ in out}) == d, "repeated X-image")
    for qf, sf in out:
        q_int = oracle.int_poly(qf, q)
        check(1 <= len(q_int) - 1 < d, f"X-image {qf} has wrong degree")
        quo, rem = oracle.divmod_int(oracle.compose_int(p1_int, q_int, q),
                                     p2_int, q)
        check(not rem, f"P1({qf}) is not divisible by P2")
        check(quo == oracle.int_poly(sf, q), f"S_f wrong for {qf}")
    return out


# ---------------------------------------------------------------------------
# survey: the rows of `locring survey`, plus a lift --json -> check round trip.

# (q, deg P, cases); p50 falls in the middle of F2 d4, p90 inside F3 d3
SURVEY_CLASSES = ((2, 2, 1), (2, 3, 4), (3, 2, 3), (2, 4, 9), (3, 3, 8))
SURVEY_POWERS = (1, 2, 3)
# the round trip runs at the largest power whose source ring has at most
# this many elements, so that `check` runs the exhaustive morphism law
ROUND_TRIP_MAX_ORDER = 32


def build_survey(lib, rng, tr):
    cases = []
    for q, d, count in SURVEY_CLASSES:
        field = lib.fields.PrimeField(q)
        polys = irreducibles(lib, tr, field, q, d)
        rt_power = max(n for n in SURVEY_POWERS
                       if q ** (d * n) <= ROUND_TRIP_MAX_ORDER)
        for p1, p2 in _pairs(rng, polys, count):
            samples = {}
            for n in SURVEY_POWERS:
                ring = lib.quotient.QuotientRing(p1, n)
                samples[n] = _elements(lib, ring, rng,
                                       lambda r: str(r.randrange(q)), 2)
            cases.append(Case(f"F{q}:{_fmt(lib, p1)}->{_fmt(lib, p2)}",
                              f"F{q}d{d}", (p1, p2, q, d, rt_power, samples)))
    rng.shuffle(cases)
    return cases


def cli_main(lib, argv):
    """``locring <argv>`` in-process: exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = lib.cli.main(argv)
    return code, out.getvalue()


def run_survey(case, lib, tr):
    p1, p2, q, d, rt_power, samples = case.args
    lift, verify = lib.lift, lib.verify
    out = []
    kdims = {}
    for n in SURVEY_POWERS:
        found = tr.call("lift.find_residue_isomorphisms",
                        lift.find_residue_isomorphisms, p1, p2)
        check(len(found) == d, f"{len(found)} morphisms, expected {d}")
        f = found[0]
        rep = tr.call("lift.lift_is_isomorphism", lift.lift_is_isomorphism,
                      f, n)
        lifted = tr.call("lift.lift_morphism", lift.lift_morphism, f, n)
        matrix = tr.call("verify.morphism_matrix", verify.morphism_matrix,
                         lifted)
        kernel = tr.call("verify.kernel_basis", verify.kernel_basis, matrix)
        iso = tr.call("verify.certify_isomorphism",
                      verify.certify_isomorphism, lifted)
        check(rep.verdict == (len(kernel) == 0) == iso,
              f"n={n}: verdict {rep.verdict}, kernel dim {len(kernel)}, "
              f"matrix oracle {iso}")
        a, b = samples[n]
        ab = tr.call("quotient.mul", operator.mul, a, b)
        fab = tr.call("quotient.mul", operator.mul, lifted(a), lifted(b))
        check(lifted(ab) == fab, f"n={n}: f(ab) != f(a) f(b)")
        check(lifted(a + b) == lifted(a) + lifted(b),
              f"n={n}: f(a+b) != f(a) + f(b)")
        row = [n, _fmt(lib, rep.q_f), _fmt(lib, rep.s_f), rep.verdict,
               len(kernel)]
        if not rep.verdict:
            w = tr.call("lift.kernel_witness", lift.kernel_witness, f, n)
            check(not w.is_zero() and lifted(w).is_zero(),
                  f"n={n}: kernel witness is zero or not in the kernel")
            row.append(_fmt(lib, w.rep))
        kdims[n] = len(kernel)
        out.append(row)
    out.append(_round_trip(case, lib, tr, kdims))
    return out


def _round_trip(case, lib, tr, kdims):
    """`locring lift --json` then `locring check` on the emitted morphism;
    the CLI picks the first candidate that lifts to an isomorphism."""
    p1, p2, q, d, n, _ = case.args
    lift = lib.lift
    found = lift.find_residue_isomorphisms(p1, p2)
    chosen, verdict = found[0], False
    for f in found:
        if tr.call("lift.lift_is_isomorphism", lift.lift_is_isomorphism,
                   f, n).verdict:
            chosen, verdict = f, True
            break
    kdim = 0 if verdict else kdims[n]
    argv = ["lift", "--field", f"F{q}", "--p1", _fmt(lib, p1),
            "--p2", _fmt(lib, p2), "--power", str(n), "--json"]
    code, text = tr.call("cli.lift", cli_main, lib, argv)
    check(code == 0, f"lift exited {code}")
    payload = json.loads(text)
    check(payload["verdict"] == verdict, "lift --json verdict")
    morphism_text = json.dumps(payload["morphism"], sort_keys=True)
    g = tr.call("quotient.from_json",
                lib.quotient.StabilizingMorphism.from_json, morphism_text)
    check(g == lift.lift_morphism(chosen, n), "lift --json morphism")
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"morphism-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(morphism_text)
    try:
        code, report = tr.call("cli.check", cli_main, lib,
                               ["check", "--morphism", path])
    finally:
        os.remove(path)
    check(code == 0, f"check exited {code}")
    order = q ** (d * n)
    expected = ["certificate: ok",
                f"morphism law: ok ({order * order} pairs)",
                f"kernel dimension: {kdim}",
                f"isomorphism: {verdict}"]
    check(report.splitlines() == expected, f"check printed {report!r}")
    return [n, morphism_text, report]


# ---------------------------------------------------------------------------
# generic: the same hensel, lift and verify calls over non-prime fields.

GENERIC_SERIES_POWERS = (2, 3, 4)
# Fixed moduli, irreducible by construction: over Q none has a rational
# root; over F2(t) a root r would lie in F2[t], where r^2+r has even degree
# and r^3+r a degree divisible by 3, never the degree of the constant term.
# The seed picks the elements.  (Seeded moduli made the run-to-run spread
# depend on their coefficients.)
GENERIC_SERIES = (("Q", ("x^2-2", "x^2+x+1", "x^3-2", "x^3-x-1")),
                  ("F2(t)", ("x^2+x+t", "x^2+x+t^3+t+1", "x^3+x+t",
                             "x^3+x+t^2+t+1")))
# (field, q, deg P, cases); the counts put p50 inside F9 d2 and p90 among
# the ~200 ms cases (F4 d3 and F2(t) degree 3 at k = 4)
TWIST_FIELDS = (("F2[x]/(x^2+x+1)", 4, 2, 2), ("F2[x]/(x^2+x+1)", 4, 3, 10),
                ("F3[x]/(x^2+1)", 9, 2, 16))
TWIST_POWERS = (2, 3)


# Element coefficients of one shape, so that every seed's elements cost
# about the same: over Q a nonzero numerator over a prime denominator, over
# F2(t) a degree-2 numerator over the irreducible t^2+t+1 (never cancels).
def _q_coeff(rng):
    return f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/" \
        f"{rng.choice((2, 3, 5, 7))}"


def _f2t_coeff(rng):
    return f"({rng.choice(('t^2', 't^2+1', 't^2+t'))})/(t^2+t+1)"


def build_generic(lib, rng, tr):
    cases = []
    coeffs = {"Q": _q_coeff, "F2(t)": _f2t_coeff}
    for name, moduli in GENERIC_SERIES:
        field = lib.fields.parse_field(name)
        coeff = coeffs[name]
        for k in GENERIC_SERIES_POWERS:
            for text in moduli:
                p = lib.poly.parse_poly(field, text)
                ring = lib.quotient.QuotientRing(p, k,
                                                 assume_irreducible=True)
                elems = _elements(lib, ring, rng, coeff, ELEMENTS)
                cases.append(Case(f"{name}:{_fmt(lib, p)}:k{k}",
                                  f"{name}d{p.degree}k{k}",
                                  (p, k, ring, elems, True)))
    sigma = lib.fields.frobenius(1)
    for name, q, d, count in TWIST_FIELDS:
        field = lib.fields.parse_field(name)
        polys = irreducibles(lib, tr, field, q, d)
        for p1, p2 in _pairs(rng, polys, count):
            cases.append(Case(f"{name}:{_fmt(lib, p1)}->{_fmt(lib, p2)}",
                              f"F{q}d{d}frob", (p1, p2, d, sigma)))
    rng.shuffle(cases)
    return cases


def run_generic(case, lib, tr):
    if case.cls.endswith("frob"):
        return _run_twist(case, lib, tr)
    return run_digits(case, lib, tr)


def _run_twist(case, lib, tr):
    """Frobenius-twisted lifts, certified by the prime-subfield matrix."""
    p1, p2, d, sigma = case.args
    lift, verify = lib.lift, lib.verify
    found = tr.call("lift.find_residue_isomorphisms",
                    lift.find_residue_isomorphisms, p1, p2, sigma)
    check(len(found) == d, f"{len(found)} morphisms, expected {d}")
    twisted = lib.poly.Poly(p1.field, [sigma.apply(c) for c in p1.coeffs])
    ext_degree = p1.field.degree
    out = []
    for f in found:
        check((twisted.compose(f.q_image) % p2).is_zero(),
              "sigma(P1)(Q_f) is not divisible by P2")
        for n in TWIST_POWERS:
            rep = tr.call("lift.lift_is_isomorphism",
                          lift.lift_is_isomorphism, f, n)
            lifted = tr.call("lift.lift_morphism", lift.lift_morphism, f, n)
            matrix = tr.call("verify.morphism_matrix", verify.morphism_matrix,
                             lifted)
            check(matrix.nrows == matrix.ncols == ext_degree * d * n,
                  "prime-subfield matrix has the wrong size")
            kernel = tr.call("verify.kernel_basis", verify.kernel_basis,
                             matrix)
            iso = tr.call("verify.certify_isomorphism",
                          verify.certify_isomorphism, lifted)
            check(rep.verdict == (len(kernel) == 0) == iso,
                  f"n={n}: verdict {rep.verdict}, kernel dim {len(kernel)}, "
                  f"matrix oracle {iso}")
            row = [n, _fmt(lib, f.q_image), _fmt(lib, rep.s_f), rep.verdict,
                   len(kernel)]
            if not rep.verdict:
                w = tr.call("lift.kernel_witness", lift.kernel_witness, f, n)
                check(not w.is_zero() and lifted(w).is_zero(),
                      f"n={n}: kernel witness is zero or not in the kernel")
                row.append(_fmt(lib, w.rep))
            out.append(row)
    return out


def probe_survey(cases, lib):
    """Durations in ns of ``exhaustive_morphism_check`` on each case's
    round-trip morphism.  Inside a case it runs within ``locring check``,
    where the benchmark cannot time it apart."""
    lift = lib.lift
    times = []
    for case in cases:
        p1, p2, q, d, n, _ = case.args
        found = lift.find_residue_isomorphisms(p1, p2)
        chosen = next((f for f in found
                       if lift.lift_is_isomorphism(f, n).verdict), found[0])
        lifted = lift.lift_morphism(chosen, n)
        start = time.perf_counter_ns()
        law = lib.verify.exhaustive_morphism_check(lifted)
        times.append(time.perf_counter_ns() - start)
        order = q ** (d * n)
        check(law.passed and law.n_pairs == order * order,
              f"{case.id}: exhaustive morphism law")
    return times


# name -> (build, run, extra traced probe or None)
WORKLOADS = {
    "digits": (build_digits, run_digits, None),
    "search": (build_search, run_search, None),
    "survey": (build_survey, run_survey, probe_survey),
    "generic": (build_generic, run_generic, None),
}
