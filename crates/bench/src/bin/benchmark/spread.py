#!/usr/bin/env python3
"""Runs one benchmark workload once per seed and reports each metric's
spread: the distance between the first and third quartiles of its values
(`statistics.quantiles(values, n=4)`) as a share of their median.

    python3 spread.py --bin target/release/benchmark --workload serve-d5 \
        --seeds 21-30 [--seconds 20] [--out FILE] [-- EXTRA BENCHMARK ARGS]

Every numeric `workload metric value unit` line a run prints counts, so
diagnostics (such as `latency_p99_us`) get a spread too. Exits non-zero if
any run fails its gates.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--out")
    ap.add_argument("extra", nargs="*")
    a = ap.parse_args()

    values, failed = {}, 0
    for seed in a.seeds:
        cmd = [a.bin, "--workload", a.workload, "--seed", str(seed),
               "--seconds", a.seconds, "--trace", "0", *a.extra]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if run.returncode != 0 or not result["correct"]:
            failed += 1
            print(f"seed {seed} FAILED:\n{run.stderr[-2000:]}", file=sys.stderr)
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[0] == a.workload:
                try:
                    values.setdefault(parts[1], []).append(float(parts[2]))
                except ValueError:
                    pass

    summary = {}
    for name, v in values.items():
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "values": v}
        print(f"{name:24s} median {med:<14.6g} spread {summary[name]['spread']:.3f}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "seeds": a.seeds, "seconds": a.seconds,
                       "extra": a.extra, "metrics": summary}, f, indent=1)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
