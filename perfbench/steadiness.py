#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports each metric's
spread: the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --workloads gold-hot,synth-cold,synth-write \
        --out perfbench/steadiness.json

Each run is `bash perfbench/run.sh --workload W --seed S --seconds N --trace T`
with N taken from BENCHMARK.json; the last stdout line is the result.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "trace": int(args.trace), "workloads": {}}
    ok = True
    for wl in workloads:
        values = {}
        for s in seeds(args.seeds):
            cmd = ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(s),
                   "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {s}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {s}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{wl} seed {s}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)
        rows = {}
        for name, vs in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": spread, "runs": len(vs)}
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
            print(f"{wl:12s} {name:22s} median={med:10.4f} q1={q1:10.4f} q3={q3:10.4f} spread={spread:6.3f}{flag}", file=sys.stderr)
        report["workloads"][wl] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
