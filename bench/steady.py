"""Run the benchmark repeatedly and report each metric's spread and bound.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --workloads star-build --seeds 1-5 --out a.json
    python3 bench/steady.py --seeds 11-20 --baseline a.json

Each (workload, seed) pair is one fresh ``bench/run.py --trace 0`` process
that measures for ``run_seconds`` of ``BENCHMARK.json``.  For every
end-to-end metric the script prints the median of its runs and the spread,
the distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, held against the metric's ``bound``: a
spread above the bound fails, one under a third of it is steady.  With ``--baseline``, each
median is compared with the one stored by an earlier ``--out``: a change
for the worse by more than the bound fails.  The exit code is 1 on any
failure or wrong result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    p.add_argument("--out", help="write every run's metric values here (JSON)")
    p.add_argument("--baseline", help="compare medians with an earlier --out file")
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    values: dict[str, dict[str, list[float]]] = {}
    units: dict[str, str] = {}
    ok = True
    for workload in args.workloads.split(","):
        per_metric = values.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, spec["run_seconds"])
            ok = ok and res["correct"]
            shown = []
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                shown.append(f"{name}={m['value']:.4g}{m['unit']}")
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"error_rate={res['failed'] / res['attempted']:.3g} "
                  f"({res['failed']}/{res['attempted']}) " + " ".join(shown), flush=True)

    print(f"\n{'workload':13} {'metric':32} {'median':>12} {'unit':6} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for workload, per_metric in values.items():
        for name, vals in per_metric.items():
            med, sp = spread(vals)
            bound = bounds[name]["bound"]
            if sp > bound:
                verdict, ok = "WIDE", False
            else:
                verdict = "steady" if sp < bound / 3 else "within bound"
            old = baseline.get(workload, {}).get(name)
            if old:
                old_med = statistics.median(old)
                worse = (med - old_med) / old_med
                if bounds[name]["better"] == "higher":
                    worse = -worse
                verdict += f"; vs baseline {worse:+.3f}"
                if worse > bound:
                    verdict, ok = verdict + " REGRESSED", False
            print(f"{workload:13} {name:32} {med:12.6g} {units[name]:6} {sp:7.3f} "
                  f"{bound:6.3f}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
