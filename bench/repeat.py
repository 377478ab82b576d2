"""Run the benchmark over several seeds and summarise it as BENCH_<label>.json.

    python3 bench/repeat.py --label baseline --seeds 1-10 --seconds 20

Runs ``bench/run.py`` once per workload and seed, one run at a time, and
writes ``bench/results/BENCH_<label>.json``: for every metric the values of
all runs, their median and quartiles, and the quartile spread as a share of
the median; per seed the output digest; and the environment of the first
run.  Compare two labels metric by metric against the bounds in
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    digest = next(line.split(": ", 1)[1] for line in lines
                  if line.startswith("output digest: "))
    env = json.loads(next(line.split(": ", 1)[1] for line in lines
                          if line.startswith("environment: ")))
    return json.loads(lines[-1]), digest, env


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = {"label": args.label, "seconds": args.seconds, "trace": args.trace,
           "seeds": args.seeds, "workloads": {}}
    for workload in ("digits", "search", "survey", "generic"):
        runs = []
        for seed in args.seeds:
            result, digest, env = one_run(workload, seed, args.seconds,
                                          args.trace)
            out.setdefault("environment", env)
            runs.append((seed, result, digest))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        names = runs[0][1]["metrics"]
        out["workloads"][workload] = {
            "correct": all(r["correct"] for _, r, _ in runs),
            "failed": sum(r["failed"] for _, r, _ in runs),
            "attempted": sum(r["attempted"] for _, r, _ in runs),
            "digests": {str(s): d for s, _, d in runs},
            "metrics": {name: dict(unit=names[name]["unit"], **summarise(
                [r["metrics"][name]["value"] for _, r, _ in runs]))
                for name in names},
        }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, data in out["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:8s} {name:45s} median {m['median']:12.6g} "
                  f"{m['unit']:6s} spread {m['spread']:.4f}")
    print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main()
