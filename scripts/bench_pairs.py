#!/usr/bin/env python3
"""Alternating benchmark pairs: a git revision against the working tree.

    python3 scripts/bench_pairs.py --workload desk-100 --seeds 301 302 ...
        [--rev HEAD] [--seconds 30]

Extracts ``git archive <rev>`` into a temporary directory and runs
``bench/run.py --trace 0`` once in it and once in this working tree for
every seed, the revision first on even pairs and the working tree first
on odd ones, so that a drift in machine speed falls on both sides alike.
Each run's last line must parse as strict JSON (a bare ``NaN`` or
``Infinity`` is an error, as is a run that exits non-zero). For every
end-to-end metric the script prints each side's median and quartiles, the
number of pairs the working tree wins (ties count for neither), the
relative change of the medians and whether their gap exceeds the
revision's interquartile range. The same lines follow, marked
informational, for each ``<step>_ms.p50`` of the chain (``report_ms``,
``reconstruct_ms``, ...), read from each run's full record in
``bench/out/`` on both sides, to show which step a change came from.
Each is divided by the same run's ``yardstick_ms.p50``, as
``chain_norm_ms`` is normalized, so that a drift in machine speed
between runs does not read as a change of every step; the yardstick's
own line stays in ms.
After the pairs it runs ``bench/run.py
--trace 1`` once in each tree for TRACE_SECONDS, with the first seed,
under the same rule, so that a traced run that fails or prints no strict
JSON fails the script too, and prints both sides of every per-layer
``*.self_ms``, ``lapack.*.calls`` and ``spectral.eigen.calls`` of the
two traced summaries, to show in which layer a change saves time and
that it runs the same kernels. It only reads ``bench/`` and
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACE_SECONDS = 5.0
# The medians of the per-step samples in a run's full record.
STEP_MEDIAN = re.compile(r"^\w+_ms\.p50$")
YARDSTICK = "yardstick_ms.p50"
# The traced metrics printed for both trees.
TRACED = re.compile(
    r"^[\w.]+\.self_ms$|^lapack\.\w+\.calls$|^spectral\.eigen\.calls$")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def extract(rev: str, dest: Path) -> None:
    """The committed files of ``rev``, as ``git archive`` gives them."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int, seconds: float,
        trace: int = 0) -> dict:
    """One benchmark run in ``tree``: its JSON summary line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    try:
        return json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as exc:
        raise SystemExit(f"{tree} seed {seed} trace {trace}: last line is "
                         f"not strict JSON ({exc})") from None


def step_medians(tree: Path, workload: str, seed: int) -> dict:
    """Every ``<step>_ms.p50`` of the full record that ``bench/run.py
    --trace 0`` wrote for this seed to ``tree``'s bench/out/."""
    record = json.loads((tree / "bench" / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return {name: metric["value"]
            for name, metric in record["metrics"].items()
            if STEP_MEDIAN.match(name)}


def yardstick_scaled(medians: dict) -> dict:
    """One run's step medians, each but the yardstick's divided by the
    run's ``yardstick_ms.p50`` and named ``<step>_ms.p50/yardstick``; the
    yardstick's own stays in ms."""
    yardstick = medians[YARDSTICK]
    return {YARDSTICK: yardstick,
            **{f"{name}/yardstick": value / yardstick
               for name, value in medians.items() if name != YARDSTICK}}


def traced_metrics(summary: dict) -> dict:
    """The per-layer self times and the kernel and eigen call counts of
    a ``--trace 1`` summary line."""
    return {name: metric["value"]
            for name, metric in summary["metrics"].items()
            if TRACED.match(name)}


def traced_lines(base: dict, change: dict) -> list[str]:
    """One line per traced metric of both runs: base -> change."""
    lines = []
    for name in sorted(base.keys() & change.keys()):
        b, c = base[name], change[name]
        rel = f", {(c / b - 1) * 100:+.1f}%" if b else ""
        lines.append(f"{name}: {b:.6g} -> {c:.6g}{rel}")
    return lines


def summarize(name: str, lower_better: bool, base: list[float],
              change: list[float]) -> str:
    q_base = statistics.quantiles(base, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum((c < b) if lower_better else (c > b)
               for b, c in zip(base, change))
    gap = abs(q_change[1] - q_base[1])
    return (f"{name}: {q_base[1]:.6g} ({q_base[0]:.6g}-{q_base[2]:.6g}) -> "
            f"{q_change[1]:.6g} ({q_change[0]:.6g}-{q_change[2]:.6g}), "
            f"change better in {wins}/{len(base)}, "
            f"{(q_change[1] / q_base[1] - 1) * 100:+.1f}%, median gap "
            f"{gap:.6g} {'>' if gap > q_base[2] - q_base[0] else '<='} "
            f"base IQR {q_base[2] - q_base[0]:.6g}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--rev", default="HEAD",
                        help="the revision to compare against (HEAD)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="seconds per run (BENCHMARK.json's run_seconds)")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")

    metrics = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    values = {side: {name: [] for name in metrics}
              for side in ("base", "change")}
    steps = {side: [] for side in ("base", "change")}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp)
        extract(args.rev, base_tree)
        for i, seed in enumerate(args.seeds):
            order = [("base", base_tree), ("change", ROOT)]
            if i % 2:
                order.reverse()
            row = []
            for side, tree in order:
                summary = run(tree, args.workload, seed, args.seconds)
                steps[side].append(yardstick_scaled(
                    {name: value for name, value in
                     step_medians(tree, args.workload, seed).items()
                     if name not in metrics}))
                for name in metrics:
                    values[side][name].append(
                        summary["metrics"][name]["value"])
                row.append(f"{side} failed {summary['failed']}/"
                           f"{summary['attempted']} " + " ".join(
                               f"{name} {values[side][name][-1]:.6g}"
                               for name in metrics))
            print(f"pair {i} seed {seed}: " + "; ".join(row), flush=True)
        traced = {}
        for side, tree in (("base", base_tree), ("change", ROOT)):
            summary = run(tree, args.workload, args.seeds[0], TRACE_SECONDS,
                          trace=1)
            traced[side] = traced_metrics(summary)
            print(f"traced run {side} seed {args.seeds[0]}: failed "
                  f"{summary['failed']}/{summary['attempted']}, strict JSON",
                  flush=True)
    print(f"# {args.workload}, {len(args.seeds)} pairs of {args.seconds:g} s, "
          f"{args.rev} -> working tree, median (quartiles)")
    for name, lower_better in metrics.items():
        print(summarize(name, lower_better, values["base"][name],
                        values["change"][name]))
    print("# per step, informational: not end-to-end metrics, no bound; "
          "each <step>_ms.p50 is yardstick-scaled (divided by the same "
          "run's yardstick_ms.p50), the yardstick itself in ms")
    shared = set.intersection(*(set(run_steps) for side in steps.values()
                                for run_steps in side))
    for name in sorted(shared):
        print(summarize(name, True, [s[name] for s in steps["base"]],
                        [s[name] for s in steps["change"]]))
    print(f"# traced, informational: one --trace 1 run per tree of "
          f"{TRACE_SECONDS:g} s, seed {args.seeds[0]}, {args.rev} -> "
          "working tree")
    for line in traced_lines(traced["base"], traced["change"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
