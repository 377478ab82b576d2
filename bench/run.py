"""locring benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload digits --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up imports the library and builds the workload's inputs
several times (``setup_s`` reports the median).  Then the workload's fixed
case list runs in passes, each pass starting with every library cache
cleared, as a fresh ``locring`` process would, until ``--seconds`` have
passed and at least ``MIN_SAMPLES`` cases have been timed.  Every case
checks its outputs; a case that raises, fails a check, or whose output
digest differs from the reference counts as failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see README.md).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

# CPU time used before this line is the interpreter's start-up
_START_CPU_S = time.process_time()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import probes  # noqa: E402
from spans import NullTracer, Tracer, p50  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, CheckFailed, InputError  # noqa

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")

MODULES = ("fields", "poly", "quotient", "hensel", "lift", "verify", "cli")
SETUP_REPS = 5
# calibration slices between set-ups
SETUP_SLICES = 4
# at least ten latency samples beyond p90
MIN_SAMPLES = 100
# stop after this long whatever the sample count, to exit within 180 s
MAX_MEASURE_S = 120.0

END_TO_END = (
    ("cases_per_s", "1/s", "higher"),
    ("case_p50_ms", "ms", "lower"),
    ("case_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _per_layer():
    out = []
    for op in ("mul", "inv"):
        for kind in probes.FALLBACK:
            out.append((f"fields.{op}.{kind}.p50_ns", "ns", "lower"))
    for op in ("mul", "divmod", "compose_mod", "gcd"):
        out.append((f"poly.{op}.p50_us", "us", "lower"))
    out.append(("poly.enumerate_irreducibles.busy_s", "s", "lower"))
    for fn in ("hensel_root_series", "embed_residue_field", "to_digits",
               "from_digits", "digits_mul"):
        out += [(f"hensel.{fn}.calls", "count", "lower"),
                (f"hensel.{fn}.busy_s", "s", "lower"),
                (f"hensel.{fn}.p50_us", "us", "lower")]
    out += [("quotient.mul.busy_s", "s", "lower"),
            ("quotient.from_json.calls", "count", "lower"),
            ("quotient.from_json.busy_s", "s", "lower"),
            ("lift.find_residue_isomorphisms.calls", "count", "lower"),
            ("lift.find_residue_isomorphisms.busy_s", "s", "lower"),
            ("lift.find_residue_isomorphisms.p50_us", "us", "lower"),
            ("lift.find_residue_isomorphisms.cache_hits", "count", "higher"),
            ("lift.find_residue_isomorphisms.cache_misses", "count", "lower")]
    for fn in ("lift_is_isomorphism", "lift_morphism", "kernel_witness"):
        out += [(f"lift.{fn}.calls", "count", "lower"),
                (f"lift.{fn}.busy_s", "s", "lower")]
    for fn in ("morphism_matrix", "kernel_basis", "certify_isomorphism"):
        out.append((f"verify.{fn}.busy_s", "s", "lower"))
    out += [("verify.exhaustive_morphism_check.calls", "count", "lower"),
            ("verify.exhaustive_morphism_check.busy_s", "s", "lower"),
            ("cli.lift.busy_s", "s", "lower"),
            ("cli.check.busy_s", "s", "lower"),
            ("trace.overhead_frac", "ratio", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()


def import_library():
    """A fresh import of every locring module from ``src/``."""
    for name in [m for m in sys.modules
                 if m == "locring" or m.startswith("locring.")]:
        del sys.modules[name]
    pkg = importlib.import_module("locring")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"locring imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"locring.{m}")
                              for m in MODULES})


def clear_caches(lib):
    """Empty every functools cache in the library (a cold process)."""
    for module in vars(lib).values():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def search_cache_info(lib):
    info = getattr(lib.lift.find_residue_isomorphisms, "cache_info", None)
    return (info().hits, info().misses) if info else (0, 0)


def case_digest(output):
    text = json.dumps(output, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(workload, seed):
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def save_golden(workload, seed, digests):
    try:
        with open(GOLDEN, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.setdefault(workload, {})[str(seed)] = digests
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256():
    """Digest of the library's source files, for checkouts without .git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "locring")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(args, cases):
    classes = {}
    for case in cases:
        classes[case.cls] = classes.get(case.cls, 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "cases_per_pass": len(cases),
        "cases_per_class": classes,
    }


class Run:
    """The measured passes of one workload over its fixed case list."""

    def __init__(self, workload, lib, cases, tracer, reference, speed):
        self.run_case = WORKLOADS[workload][1]
        self.speed = speed
        self.lib = lib
        self.cases = cases
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.digests = None
        # traced? -> (case index, seconds, index of the latest slice)
        self.timings = {False: [], True: []}
        self.cache_counts = []
        self._reported = False

    def one_pass(self, traced):
        tr = self.tracer if traced else NullTracer()
        clear_caches(self.lib)
        digests = []
        with tr.span("pass"):
            for i, case in enumerate(self.cases):
                slice_index = self.speed.maybe_sample()
                t0 = time.perf_counter()
                digests.append(self._one_case(case, tr))
                self.timings[traced].append(
                    (i, time.perf_counter() - t0, slice_index))
        self.cache_counts.append(search_cache_info(self.lib))
        if self.digests is None:
            self.digests = digests
            if self.reference is None:
                self.reference = digests
        self.attempted += len(digests)
        self.failed += sum(1 for got, want in zip(digests, self.reference)
                           if got is None or got != want)

    def latencies(self, traced, scaled):
        """Seconds per case, each scaled by the speed around it if
        ``scaled``."""
        return [t * self.speed.factor_near(k) if scaled else t
                for _, t, k in self.timings[traced]]

    def cases_per_s(self, traced, scaled):
        """Cases per second of a pass in which every case takes its median
        latency over the passes; robust to a slow pass."""
        by_case = [[] for _ in self.cases]
        for (i, _, _), t in zip(self.timings[traced],
                                self.latencies(traced, scaled)):
            by_case[i].append(t)
        return len(self.cases) / sum(map(statistics.median, by_case))

    def _one_case(self, case, tr):
        try:
            with tr.span("case", case=case.id):
                output = self.run_case(case, self.lib, tr)
        except CheckFailed as e:
            self._report(f"case {case.id}: check failed: {e}")
            return None
        except Exception:  # a raising case is a failed case; keep running
            self._report(f"case {case.id} raised:\n{traceback.format_exc()}")
            return None
        return case_digest(output)

    def _report(self, message):
        if not self._reported:
            print(message, file=sys.stderr)
            self._reported = True


def measure(args, run):
    """Passes until ``--seconds`` have passed and enough cases are timed;
    traced runs alternate untraced and traced passes."""
    start = time.perf_counter()
    n = 0
    while True:
        traced = bool(args.trace) and n % 2 == 1
        run.one_pass(traced)
        n += 1
        elapsed = time.perf_counter() - start
        enough = n >= 2 if args.trace else \
            len(run.timings[False]) >= MIN_SAMPLES
        if elapsed >= MAX_MEASURE_S or (elapsed >= args.seconds and enough):
            return


def end_to_end_metrics(run, setup_s, scaled):
    """End-to-end metrics, in reference-host time if ``scaled``."""
    lat = run.latencies(False, scaled)
    deciles = statistics.quantiles(lat, n=10)
    return {
        "cases_per_s": run.cases_per_s(False, scaled),
        "case_p50_ms": statistics.median(lat) * 1e3,
        "case_p90_ms": deciles[8] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer_metrics(run, tracer, setup_reps, extra_probe):
    passes = len(run.timings[True]) // len(run.cases)
    durations = tracer.durations_within("pass")
    out = {}
    for name, unit, _ in PER_LAYER:
        span, _, stat = name.rpartition(".")
        ds = durations.get(span, [])
        if stat == "calls":
            out[name] = len(ds) / passes
        elif stat == "busy_s":
            out[name] = sum(ds) / passes / 1e9
        elif stat == "p50_us":
            out[name] = p50(ds) / 1e3
    setup = tracer.durations_within("setup").get(
        "poly.enumerate_irreducibles", [])
    out["poly.enumerate_irreducibles.busy_s"] = sum(setup) / setup_reps / 1e9
    hits, misses = zip(*run.cache_counts)
    out["lift.find_residue_isomorphisms.cache_hits"] = statistics.mean(hits)
    out["lift.find_residue_isomorphisms.cache_misses"] = statistics.mean(
        misses)
    exhaustive = extra_probe(run.cases, run.lib) if extra_probe else []
    out["verify.exhaustive_morphism_check.calls"] = len(exhaustive)
    out["verify.exhaustive_morphism_check.busy_s"] = sum(exhaustive) / 1e9
    out["trace.overhead_frac"] = 1 - run.cases_per_s(True, True) \
        / run.cases_per_s(False, True)
    return out


def write_record(args, record):
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(
        WORK_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="store this run's case digests as the reference "
                             "for this workload and seed")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "locring", "__init__.py")):
        print(f"error: no locring sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    build, _, extra_probe = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    seed_key = f"{args.workload}:{args.seed}"

    speed = Speed()
    setup_times = []
    try:
        for _ in range(SETUP_REPS):
            for _ in range(SETUP_SLICES):
                speed.sample()
            t0 = time.perf_counter()
            with tracer.span("setup"):
                lib = import_library()
                cases = build(lib, random.Random(seed_key), tracer)
            setup_times.append(time.perf_counter() - t0)
    except InputError as e:
        print(f"error: bad inputs: {e}", file=sys.stderr)
        return 1
    for _ in range(SETUP_SLICES):
        speed.sample()
    setup_s = _START_CPU_S + statistics.median(setup_times)
    # each set-up scaled by the slices just before and just after it
    setup_s_scaled = _START_CPU_S * speed.factor(0, SETUP_SLICES) \
        + statistics.median(
            t * speed.factor(i * SETUP_SLICES, (i + 2) * SETUP_SLICES)
            for i, t in enumerate(setup_times))

    reference = None if args.update_golden else load_golden(args.workload,
                                                            args.seed)
    if reference is not None and len(reference) != len(cases):
        print("error: golden.json does not match this workload's case list",
              file=sys.stderr)
        return 1
    run = Run(args.workload, lib, cases, tracer, reference, speed)
    measure(args, run)

    if args.trace:
        metrics = per_layer_metrics(run, tracer, SETUP_REPS, extra_probe)
        metrics.update(probes.run_probes(cases, lib, seed_key))
        spec = PER_LAYER
        spans_ok = tracer.children_fit("case")
    else:
        metrics = end_to_end_metrics(run, setup_s_scaled, True)
        raw = end_to_end_metrics(run, setup_s, False)
        spec = END_TO_END
        spans_ok = True
    if not spans_ok:
        print("error: child spans of a case outlast the case",
              file=sys.stderr)
    correct = run.failed == 0 and spans_ok
    if args.update_golden and correct:
        save_golden(args.workload, args.seed, run.digests)

    env = environment(args, cases)
    digest = hashlib.sha256("".join(run.digests).encode()).hexdigest() \
        if None not in run.digests else "incomplete"
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in spec},
    }
    record = {"environment": env, "output_digest": digest,
              "speed_factor": speed.factor(),
              "case_digests": run.digests,
              "failed_frac": run.failed / run.attempted, "result": result}
    if args.trace:
        record["spans"] = tracer.to_json()
    else:
        record["unscaled_metrics"] = raw
    path = write_record(args, record)

    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"output digest: {digest}")
    print(f"failed_frac: {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} cases)")
    print(f"latency samples: {len(run.timings[bool(args.trace)])}")
    print(f"speed factor: {speed.factor():.6g} "
          f"({len(speed.samples)} calibration slices)")
    for name, unit, _ in spec:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
