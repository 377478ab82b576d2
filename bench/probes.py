"""Layer probes for the traced run: field and Poly operations timed on
operands taken from the workload's own cases, outside any case span.

Each field kind gets a probe on every workload, so that every workload
reports the same metrics: a kind that the workload's cases never use is
probed on fixed operands instead (see ``FALLBACK``).
"""

from __future__ import annotations

import random
import time

from spans import p50

_now = time.perf_counter_ns

FIELD_KINDS = {"PrimeField": "prime", "Rationals": "rational",
               "RationalFunctionField": "function",
               "ExtensionField": "extension"}
# (field, element texts) probed when the workload's cases have no operands
# of that kind
FALLBACK = {"prime": ("F3", ("1", "2")),
            "rational": ("Q", ("7/3", "-5/2", "11/4")),
            "function": ("F2(t)", ("(t^2+1)/(t+1)", "t^3+t", "1/(t^2+t+1)")),
            "extension": ("F2[x]/(x^2+x+1)", ("a", "a+1"))}
MAX_OPERANDS = 16
MAX_TRIPLES = 8
# an operation is repeated until the repeats take this long
MIN_PROBE_NS = 1_000_000


def _walk(obj, lib, polys):
    if isinstance(obj, lib.poly.Poly):
        polys.append(obj)
    elif isinstance(obj, lib.quotient.QuotientElement):
        polys.append(obj.rep)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            _walk(x, lib, polys)
    elif isinstance(obj, dict):
        for x in obj.values():
            _walk(x, lib, polys)


def case_polys(case, lib):
    polys = []
    _walk(case.args, lib, polys)
    return polys


def _field_operands(cases, lib):
    """Nonzero coefficients of the cases' polynomials, by kind and field."""
    groups = {kind: {} for kind in FIELD_KINDS.values()}
    for case in cases:
        for a in case_polys(case, lib):
            for c in a.coeffs:
                ops = groups[FIELD_KINDS[type(c.field).__name__]].setdefault(
                    c.field, [])
                if not c.is_zero() and c not in ops \
                        and len(ops) < MAX_OPERANDS:
                    ops.append(c)
    for kind, (name, texts) in FALLBACK.items():
        if not any(len(ops) > 1 for ops in groups[kind].values()):
            field = lib.fields.parse_field(name)
            groups[kind] = {field: [lib.poly.parse_element(field, t)
                                    for t in texts]}
    return groups


def _per_op_ns(fn):
    """Mean ns per call of ``fn``, over at least ``MIN_PROBE_NS``."""
    reps, start = 0, _now()
    while True:
        fn()
        reps += 1
        elapsed = _now() - start
        if elapsed >= MIN_PROBE_NS:
            return elapsed / reps


def field_probes(cases, lib):
    """p50 ns of ``a * b`` and ``a ** -1`` for each field kind, over
    operands of one field at a time."""
    out = {}
    for kind, by_field in _field_operands(cases, lib).items():
        mul, inv = [], []
        for ops in by_field.values():
            if len(ops) > 1:
                for a, b in zip(ops, ops[1:] + ops[:1]):
                    mul.append(_per_op_ns(lambda: a * b))
                inv += [_per_op_ns(lambda: a ** -1) for a in ops]
        out[f"fields.mul.{kind}.p50_ns"] = p50(mul)
        out[f"fields.inv.{kind}.p50_ns"] = p50(inv)
    return out


def _poly_triples(cases, lib, rng):
    """Per case (a, b, m) over one field: m the case's highest-degree
    polynomial, a and b two others reduced mod m."""
    triples = []
    for case in rng.sample(cases, min(MAX_TRIPLES, len(cases))):
        polys = sorted((a for a in case_polys(case, lib) if not a.is_zero()),
                       key=lambda a: a.degree)
        polys = [a for a in polys if a.field == polys[-1].field]
        if len(polys) < 2:
            continue
        m = polys[-1]
        a = polys[-2] % m
        b = (polys[-3] if len(polys) > 2 else a.derivative() + a) % m
        triples.append((a, b, m))
    return triples


def poly_probes(cases, lib, rng):
    """p50 us of Poly ``*``, ``divmod``, ``compose_mod`` and ``gcd``."""
    gcd = lib.poly.gcd
    times = {"mul": [], "divmod": [], "compose_mod": [], "gcd": []}
    for a, b, m in _poly_triples(cases, lib, rng):
        ab = a * b
        times["mul"].append(_per_op_ns(lambda: a * b))
        times["divmod"].append(_per_op_ns(lambda: divmod(ab, m)))
        times["compose_mod"].append(_per_op_ns(lambda: a.compose_mod(b, m)))
        times["gcd"].append(_per_op_ns(lambda: gcd(a, m)))
    return {f"poly.{op}.p50_us": p50(ts) / 1e3 for op, ts in times.items()}


def run_probes(cases, lib, seed_key):
    rng = random.Random(f"probe:{seed_key}")
    out = field_probes(cases, lib)
    out.update(poly_probes(cases, lib, rng))
    return out
