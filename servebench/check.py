#!/usr/bin/env python3
"""Self-checks for the serving benchmark, run from the repository root.

  python3 servebench/check.py spread --workload dispatch-storm --seeds 10
      Run one workload on N seeds and report, per end-to-end metric, the
      distance between the first and third quartile as a share of the
      median, next to the metric's bound in BENCHMARK.json.

  python3 servebench/check.py sensitivity --seeds 5 [--case cpu|stall]
      Run workloads in alternating pairs, as shipped and with a synthetic
      regression, and apply the comparison rule below. Two cases:
        * cpu: cifar10 wrapped to spin 10% longer (more CPU work):
          inference-mix must be flagged worse, dispatch-storm must show
          no change;
        * stall: every notebook memo lookup sleeps 100 us through the
          program's fault-injection hook (the call blocks; no work is
          added beyond the sleep's context switches): notebook-memo's
          slo_attainment must be flagged worse.
      Exits 0 only if every case run comes out as expected.

Comparison rule (per workload and metric): a change is flagged when the
candidate is on the same side of the baseline in at least nine tenths of
the pairs and the medians differ by more than the baseline's own
quartile spread. A flagged change that exceeds the metric's bound is a
regression by the benchmark's gate.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))
METRICS = {m["name"]: m for m in BENCH["end_to_end"]}


def run(workload, seed, seconds, extra=()):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0", *extra,
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(out.stdout, file=sys.stderr)
        sys.exit(f"{workload} seed {seed}: run reported correct=false")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def cmd_spread(args):
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        runs.append(run(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
    worst = 0.0
    for name, m in METRICS.items():
        values = [r[name] for r in runs]
        s = spread(values)
        worst = max(worst, s / m["bound"])
        print(f"{name:<16} median {statistics.median(values):>12.4f} {m['unit']:<6} "
              f"spread {s:.3f} bound {m['bound']} ({s / m['bound']:.0%} of bound)")
    print(f"worst spread/bound: {worst:.2f}")


def compare(base, cand):
    """Verdict per metric for paired runs (lists of metric dicts)."""
    verdicts = {}
    for name, m in METRICS.items():
        a = [r[name] for r in base]
        b = [r[name] for r in cand]
        sign = 1 if m["better"] == "lower" else -1
        worse = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        better = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else 0.0
        iqr = spread(a) if len(a) >= 2 else 0.0
        consistent = max(worse, better) >= 0.9 * len(a)
        if consistent and abs(change) > iqr:
            verdict = "worse" if worse > better else "better"
            if verdict == "worse" and abs(change) > m["bound"]:
                verdict = "worse, past bound"
        else:
            verdict = "no change"
        verdicts[name] = (verdict, change, iqr, worse, better)
    return verdicts


def paired(workload, seeds, first_seed, seconds, extra):
    """Baseline and candidate runs on the same seeds, alternating which
    side runs first so drift hits both."""
    base, cand = [], []
    for i, seed in enumerate(range(first_seed, first_seed + seeds)):
        sides = [(base, ()), (cand, extra)]
        for runs, flags in sides if i % 2 == 0 else sides[::-1]:
            runs.append(run(workload, seed, seconds, flags))
        print(f"{workload} seed {seed} done", flush=True)
    return base, cand


def cmd_sensitivity(args):
    cases = {
        "cpu": (f"cifar10 +{args.slowdown:.0%} spin", ("--slowdown", str(args.slowdown)),
                {"inference-mix": "any", "dispatch-storm": None}),
        "stall": (f"memo lookups stall {args.stall_us} us", ("--stall-us", str(args.stall_us)),
                  {"notebook-memo": "slo_attainment"}),
    }
    ok = True
    for case in cases if args.case == "all" else [args.case]:
        label, extra, expect = cases[case]
        for workload, want in expect.items():
            base, cand = paired(workload, args.seeds, args.first_seed, args.seconds, extra)
            print(f"\n{workload}: {label} vs as shipped, {args.seeds} pairs")
            verdicts = compare(base, cand)
            for name, (verdict, change, iqr, worse, better) in verdicts.items():
                print(f"  {name:<16} {change:+7.1%} (baseline spread {iqr:.1%}; "
                      f"worse in {worse}, better in {better}) -> {verdict}")
            flagged = [n for n, v in verdicts.items() if v[0].startswith("worse")]
            shown = ", ".join(flagged) or "none"
            if want is None:
                print(f"  expected no change; flagged: {shown}")
                ok &= not flagged
            elif want == "any":
                print(f"  expected a flag; flagged: {shown}")
                ok &= bool(flagged)
            else:
                print(f"  expected {want} flagged; flagged: {shown}")
                ok &= want in flagged
    print("\nsensitivity check " + ("passed" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    for q in (s, sub.add_parser("sensitivity")):
        q.add_argument("--seeds", type=int, default=5)
        q.add_argument("--first-seed", type=int, default=1)
        q.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    sub.choices["sensitivity"].add_argument("--slowdown", type=float, default=0.10)
    sub.choices["sensitivity"].add_argument("--stall-us", type=int, default=100)
    sub.choices["sensitivity"].add_argument("--case", choices=["all", "cpu", "stall"], default="all")
    args = p.parse_args()
    {"spread": cmd_spread, "sensitivity": cmd_sensitivity}[args.cmd](args)


if __name__ == "__main__":
    main()
