#!/usr/bin/env python3
"""Checks how steady the benchmark is, the way BENCHMARK.json's bounds are
held to it: in each of --sets back-to-back sets, every workload runs once per
seed for run_seconds, through BENCHMARK.json's command. For every end-to-end
metric it prints, per set, the median of the runs and their quartile spread
(Q3 - Q1 of statistics.quantiles(n=4), as a share of the median), and how
far the last set's median moved from the first's. raw_run_s, run_s before
host-speed normalization, is printed next to the metrics.

Run it from the repository root; it takes a little over sets x workloads x
seeds x run_seconds (about 35 minutes for the defaults):

    python3 perfbench/calibrate.py --out perfbench/runs/<stamp>-calibration.json

A median that got worse by more than the bound, or a spread wider than the
bound (setup_s excepted), is marked OVER; a spread above a third of the
bound is marked wide. The exit code is 1 if any run failed or any metric is
OVER.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--out", help="write every run's values and the summary here")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seeds = parse_seeds(args.seeds)
    work = os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "calibrate"))
    os.makedirs(work, exist_ok=True)
    metrics = bench["end_to_end"] + [{"name": "raw_run_s", "unit": "s", "better": "lower", "bound": 0}]

    runs = []
    ok = True
    for s in range(1, args.sets + 1):
        for w in [w["name"] for w in bench["workloads"]]:
            for seed in seeds:
                ledger_path = os.path.join(work, "%s.%d.json" % (w, seed))
                cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0",
                                          "--out", ledger_path]
                t = time.monotonic()
                p = subprocess.run(cmd, capture_output=True, text=True)
                elapsed = time.monotonic() - t
                lines = p.stdout.strip().splitlines()
                line = json.loads(lines[-1]) if lines else {}
                values = {k: v["value"] for k, v in line.get("metrics", {}).items()}
                if p.returncode == 0:
                    wr = json.load(open(ledger_path))["workloads"][0]["metrics"]
                    values["raw_run_s"] = wr["raw_run_s"]["value"]
                    values["host_ref_ms"] = wr["host_ref_ms"]["value"]
                else:
                    ok = False
                    sys.stderr.write(p.stderr)
                runs.append({"set": s, "workload": w, "seed": seed, "exit": p.returncode,
                             "elapsed_s": round(elapsed, 1), "attempted": line.get("attempted"),
                             "failed": line.get("failed"), "values": values})
                print("set %d %-16s seed %-3d exit %d  %5.1fs  %s reps" %
                      (s, w, seed, p.returncode, elapsed, line.get("attempted")), file=sys.stderr, flush=True)

    summary = []
    print("%-16s %-16s %s %9s %6s  %s" % ("workload", "metric",
          " ".join("%12s %7s" % ("median %d" % s, "spread") for s in range(1, args.sets + 1)),
          "moved", "bound", "verdict"))
    for w in [w["name"] for w in bench["workloads"]]:
        for m in metrics:
            meds, spreads = [], []
            for s in range(1, args.sets + 1):
                vals = [r["values"][m["name"]] for r in runs
                        if r["set"] == s and r["workload"] == w and m["name"] in r["values"]]
                if len(vals) < 2:
                    continue
                meds.append(statistics.median(vals))
                spreads.append(spread(vals))
            if not meds:
                continue
            moved = (meds[-1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                moved = -moved
            verdict = "-"
            if m["bound"] > 0:
                verdict = "ok"
                if max(spreads) > m["bound"] / 3:
                    verdict = "wide"
                # setup_s is held to its bound only between sets.
                if moved > m["bound"] or (m["name"] != "setup_s" and max(spreads) > m["bound"]):
                    verdict = "OVER"
                    ok = False
            summary.append({"workload": w, "metric": m["name"], "medians": meds, "spreads": spreads,
                            "moved": moved, "bound": m["bound"], "verdict": verdict})
            print("%-16s %-16s %s %+8.1f%% %5.0f%%  %s" % (w, m["name"],
                  " ".join("%12.6g %6.1f%%" % (md, 100 * sp) for md, sp in zip(meds, spreads)),
                  100 * moved, 100 * m["bound"], verdict))

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"run_seconds": bench["run_seconds"], "seeds": seeds, "sets": args.sets,
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
