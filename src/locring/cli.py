"""Command-line surface: embed, digits, lift, find-iso, check, survey,
demo-inseparable.

Exit codes: 0 success, 1 verification failure (a mathematical counterexample
was found), 2 usage or input error, or stdout or stderr closed early.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys

from .errors import (InvalidArgument, LocringError, NotSeparable, ParseError,
                     TooLarge)
from .fields import IDENTITY, FieldAutomorphism, format_field, parse_field
from .hensel import embed_residue_field, hensel_root_series, to_digits
from .lift import (
    find_residue_isomorphisms,
    kernel_witness,
    lift_is_isomorphism,
    lift_morphism,
    pick_residue_morphism,
    residue_morphism_from_Q,
    rings_isomorphic_separable,
)
from .poly import (MAX_TABLE_WORK, enumerate_irreducibles, format_poly, gcd,
                   parse_poly)
from .quotient import QuotientRing, StabilizingMorphism
from .verify import exhaustive_morphism_check, kernel_dimension

SURVEY_COLUMNS = ["field", "p1", "p2", "degree", "n",
                  "q_f", "s_f", "verdict", "kernel_dim"]


def _parse_inputs(args, *poly_attrs):
    field = parse_field(args.field)
    assume = not field.is_finite()
    polys = [parse_poly(field, getattr(args, name)) for name in poly_attrs]
    if assume:
        _note_assumed(field, polys)
    return field, assume, polys


def _note_assumed(field, polys):
    # stderr, so that stdout stays the same whether or not P was checked; a
    # linear P is irreducible over every field, so it needs no note
    for text in dict.fromkeys(format_poly(p) for p in polys if p.degree != 1):
        print(f"note: irreducibility of {text} over {format_field(field)} "
              "is assumed, not verified", file=sys.stderr)


def _sigma(args):
    return FieldAutomorphism.parse(getattr(args, "sigma", None) or "id")


def cmd_embed(args):
    field, assume, (p,) = _parse_inputs(args, "poly")
    k = args.power
    series = hensel_root_series(p, k)
    morphism = embed_residue_field(p, k, assume_irreducible=assume)
    ok = series.certificate_residual().is_zero()
    if args.json:
        print(json.dumps({
            "u": format_poly(series.u),
            "q_list": [format_poly(q) for q in series.q_list],
            "r_cert": format_poly(series.r_cert),
            "certificate_ok": ok,
            "morphism": morphism.to_dict(),
        }, sort_keys=True))
    else:
        print(f"U = {format_poly(series.u)}")
        for i, q in enumerate(series.q_list, start=1):
            print(f"Q_{i} = {format_poly(q)}")
        print(f"R_cert = {format_poly(series.r_cert)}")
        status = "ok" if ok else "FAILED"
        print(f"certificate P(U) = R_cert * P^{k}: {status}")
    return 0 if ok else 1


def cmd_digits(args):
    field, assume, (p,) = _parse_inputs(args, "poly")
    ring = QuotientRing(p, args.power, assume_irreducible=assume)
    elem = ring.element(parse_poly(field, args.element))
    digits = to_digits(elem)
    if args.json:
        print(json.dumps([format_poly(d.rep) for d in digits], sort_keys=True))
    else:
        print("[" + ", ".join(format_poly(d.rep) for d in digits) + "]")
    return 0


def _pick_residue_morphism(args, p1, p2, sigma, assume):
    if args.q is not None:
        q = parse_poly(p2.field, args.q)
        return residue_morphism_from_Q(p1, p2, sigma, q,
                                       assume_irreducible=assume)
    return pick_residue_morphism(find_residue_isomorphisms(p1, p2, sigma),
                                 args.power)


def cmd_lift(args):
    field, assume, (p1, p2) = _parse_inputs(args, "p1", "p2")
    sigma = _sigma(args)
    n = args.power
    f = _pick_residue_morphism(args, p1, p2, sigma, assume)
    report = lift_is_isomorphism(f, n)
    lifted = lift_morphism(f, n)
    payload = {
        "q_f": format_poly(report.q_f),
        "s_f": format_poly(report.s_f),
        "q_f_derivative_nonzero": report.q_f_derivative_nonzero,
        "gcd_sf_p2_is_one": report.gcd_sf_p2_is_one,
        "verdict": report.verdict,
        "morphism": lifted.to_dict(),
    }
    if not report.verdict and n >= 2:
        payload["kernel_witness"] = format_poly(kernel_witness(f, n).rep)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"Q_f = {payload['q_f']}")
        print(f"S_f = {payload['s_f']}")
        print(f"Q_f' != 0: {report.q_f_derivative_nonzero}")
        print(f"gcd(S_f, P2) = 1: {report.gcd_sf_p2_is_one}")
        print(f"verdict: {'isomorphism' if report.verdict else 'not injective'}")
        if "kernel_witness" in payload:
            print(f"kernel witness: class of {payload['kernel_witness']}")
        print(f"morphism: {lifted.to_json()}")
    return 0


def cmd_find_iso(args):
    field, assume, (p1, p2) = _parse_inputs(args, "p1", "p2")
    sigma = _sigma(args)
    found = find_residue_isomorphisms(p1, p2, sigma)
    if args.json:
        print(json.dumps([f.to_dict() for f in found], sort_keys=True))
    else:
        for f in found:
            print(f"q = {format_poly(f.q_image)}")
    return 0


def cmd_check(args):
    with open(args.morphism, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:  # too deeply nested
            raise ParseError(f"{args.morphism} is not valid JSON: {e}") from None
    f = StabilizingMorphism.from_dict(data)
    if not f.source.field.is_finite():
        _note_assumed(f.source.field, [f.source.p, f.target.p])
    # constructor re-verified the well-definedness certificate
    try:
        law = exhaustive_morphism_check(f)
    except TooLarge:
        law = None
    if law is not None and not law.passed:
        a, b, op = law.witness
        print(f"morphism law FAILED on {op}: a = {a}, b = {b}")
        return 1
    kdim = kernel_dimension(f)
    iso = f.source.dimension == f.target.dimension and kdim == 0
    print("certificate: ok")
    if law is not None:
        print(f"morphism law: ok ({law.n_pairs} pairs)")
    print(f"kernel dimension: {kdim}")
    print(f"isomorphism: {iso}")
    return 0


def _survey_rows(field, max_degree, max_power, sigmas):
    """One row per same-degree pair, sigma and power n: the level-n lift of
    the first residue morphism in lex order."""
    rows = []
    field_name = format_field(field)
    for degree in range(1, max_degree + 1):
        irreducibles = enumerate_irreducibles(field, degree)
        for p1, p2, sigma in itertools.product(irreducibles, irreducibles,
                                               sigmas):
            for f in find_residue_isomorphisms(p1, p2, sigma)[:1]:
                for n in range(1, max_power + 1):
                    report = lift_is_isomorphism(f, n)
                    rows.append({
                        "field": field_name,
                        "p1": format_poly(p1),
                        "p2": format_poly(p2),
                        "degree": degree,
                        "n": n,
                        "q_f": format_poly(report.q_f),
                        "s_f": format_poly(report.s_f),
                        "verdict": report.verdict,
                        "kernel_dim": kernel_dimension(lift_morphism(f, n)),
                    })
    rows.sort(key=lambda r: (r["degree"], r["p1"], r["p2"], r["n"]))
    return rows


def _charge_survey(q, max_degree, max_power, n_sigmas):
    """InvalidArgument unless an upper bound on the survey's work is within
    MAX_TABLE_WORK: at most q^d/d irreducibles of each degree d, so
    (q^d/d)^2 pairs per sigma, each lifted to every n <= P, at up to
    (P*d)^2 products per lift."""
    work = 0
    for d in range(1, max_degree + 1):
        pairs = (q ** d // d) ** 2 * n_sigmas
        work += pairs * max_power * (max_power * d) ** 2
        if work > MAX_TABLE_WORK:
            raise InvalidArgument(
                f"survey to degree {max_degree} and power {max_power}: the "
                f"sum of (q^d/d)^2 * |sigmas| * P * (P*d)^2 reaches {work} "
                f"at d = {d}, past the work bound {MAX_TABLE_WORK}")


def cmd_survey(args):
    if min(args.max_degree, args.max_power) < 1:
        raise InvalidArgument("--max-degree and --max-power must be >= 1")
    field = parse_field(args.field)
    if not field.is_finite():
        raise LocringError("survey requires a finite field")
    sigmas = [IDENTITY]
    if args.sigma:
        sigmas.append(FieldAutomorphism.parse(args.sigma))
    _charge_survey(field.order(), args.max_degree, args.max_power,
                   len(sigmas))
    rows = _survey_rows(field, args.max_degree, args.max_power, sigmas)
    out = open(args.output, "w", newline="", encoding="utf-8") \
        if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=SURVEY_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if args.output:
            out.close()
    # re-assert the kernel agreement on every row
    bad = [r for r in rows
           if r["n"] >= 2 and r["verdict"] != (r["kernel_dim"] == 0)]
    if bad:
        print(f"AGREEMENT VIOLATED on {len(bad)} rows", file=sys.stderr)
        return 1
    return 0


def cmd_demo_inseparable(args):
    field = parse_field("F2(t)")
    p = parse_poly(field, "x^2+t")
    dp = p.derivative()
    print(f"P = {format_poly(p)} over {format_field(field)}")
    print(f"P' = {format_poly(dp)}")
    if not dp.is_zero():
        print("expected P' = 0; P is separable")
        return 1
    g = gcd(dp, p)  # gcd(0, P) = P, so certainly not 1
    print(f"gcd(P', P) = {format_poly(g)} != 1")
    try:
        hensel_root_series(p, 2)
    except NotSeparable as e:
        print(f"hensel_root_series: NotSeparable ({e})")
    else:
        print("expected NotSeparable from hensel_root_series")
        return 1
    try:
        rings_isomorphic_separable(p, p, 2)
    except NotSeparable as e:
        print(f"rings_isomorphic_separable: NotSeparable ({e})")
    else:
        print("expected NotSeparable from rings_isomorphic_separable")
        return 1
    print("inseparable boundary behaves as documented")
    return 0


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="locring",
        description="Exact isomorphism toolkit for the local rings K[X]/(P^n)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_embed = sub.add_parser("embed",
                             help="residue-field embedding into K[X]/(P^k)")
    p_embed.add_argument("--field", required=True)
    p_embed.add_argument("--poly", required=True)
    p_embed.add_argument("--power", type=int, required=True)
    p_embed.add_argument("--json", action="store_true")
    p_embed.set_defaults(func=cmd_embed)

    p_digits = sub.add_parser("digits",
                              help="digit expansion along 1, P, ..., P^(k-1)")
    p_digits.add_argument("--field", required=True)
    p_digits.add_argument("--poly", required=True)
    p_digits.add_argument("--power", type=int, required=True)
    p_digits.add_argument("--element", required=True,
                          help="element of K[X]/(P^k); one that starts with "
                               "'-' takes the form --element=-x")
    p_digits.add_argument("--json", action="store_true")
    p_digits.set_defaults(func=cmd_digits)

    p_lift = sub.add_parser("lift",
                            help="lift a residue isomorphism to level n")
    p_lift.add_argument("--field", required=True)
    p_lift.add_argument("--p1", required=True)
    p_lift.add_argument("--p2", required=True)
    p_lift.add_argument("--power", type=int, required=True)
    p_lift.add_argument("--sigma", default=None)
    p_lift.add_argument("--q", default=None,
                        help="use this X-image instead of searching; one "
                             "that starts with '-' takes the form --q=-x")
    p_lift.add_argument("--json", action="store_true")
    p_lift.set_defaults(func=cmd_lift)

    p_find = sub.add_parser("find-iso",
                            help="all residue-level morphisms (root finding)")
    p_find.add_argument("--field", required=True)
    p_find.add_argument("--p1", required=True)
    p_find.add_argument("--p2", required=True)
    p_find.add_argument("--sigma", default=None)
    p_find.add_argument("--json", action="store_true")
    p_find.set_defaults(func=cmd_find_iso)

    p_check = sub.add_parser("check",
                             help="re-verify a serialized morphism")
    p_check.add_argument("--morphism", required=True)
    p_check.set_defaults(func=cmd_check)

    p_survey = sub.add_parser("survey",
                              help="CSV survey over all same-degree pairs")
    p_survey.add_argument("--field", required=True)
    p_survey.add_argument("--max-degree", type=int, required=True)
    p_survey.add_argument("--max-power", type=int, required=True)
    p_survey.add_argument("--sigma", default=None,
                          help="also survey with this base automorphism")
    p_survey.add_argument("--output", default=None, help="CSV path (default stdout)")
    p_survey.set_defaults(func=cmd_survey)

    p_demo = sub.add_parser("demo-inseparable",
                            help="show the inseparable boundary over F2(t)")
    p_demo.set_defaults(func=cmd_demo_inseparable)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except LocringError as e:
        message = f"error: {type(e).__name__}: {e}"
    except OSError as e:
        message = f"error: {e}"
    with contextlib.suppress(OSError):
        print(message, file=sys.stderr)
    # a stream into a pipe whose reader has exited keeps its unwritten text,
    # and Python's flush of it at exit would fail with status 120
    for stream in sys.stdout, sys.stderr:
        try:
            stream.flush()
        except OSError:
            with contextlib.suppress(OSError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return 2


if __name__ == "__main__":
    sys.exit(main())
