#!/usr/bin/env python3
"""structdiag benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: desk-100, small-mixed,
cli-session (see workloads.py). The package is imported from ``src`` next
to this directory, never from an installed copy; without it the benchmark
exits 1 and prints no result.

Load is one closed-loop client in one process: the next call starts when
the previous one returns. BLAS runs on one thread, set before numpy is
imported and passed to every CLI child.

``--trace 0`` times the chains untraced and reports the end-to-end metrics.
Every chain is bracketed by a yardstick, a fixed piece of reference work
that does not involve the package (workloads.py), because the speed of a
shared machine can swing by 20-40% within minutes. ``chain_ms`` is the
wall time; ``chain_norm_ms`` scales each chain to the reference speed by
the mean of the yardsticks before and after it, and is the steady figure
to compare. ``setup.wall_s`` is the wall time of the import plus the
median of repeated input generation and warm-up; ``setup_s`` is the same
sum with each part scaled to the reference speed by the yardsticks timed
right around it (setup runs before the loop, and the machine's speed
then can differ from its median speed over the loop).

``--trace 1`` alternates traced and untraced chains over the same inputs
and reports the per-layer metrics; the difference of their median chain
times is ``trace.overhead_ms``.

Every metric is printed as ``name value unit n=samples``; the last line
is the JSON summary, and the full record (machine, every metric, the
first failures, the wrapped functions) is written to bench/out/.
"""

import os

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("desk-100", "small-mixed", "cli-session")
SETUP_REPEATS = 3
PROBE_REPEATS = 3


def import_package():
    """Import structdiag from ./src and time it (numpy and scipy included)."""
    if not (SRC / "structdiag" / "__init__.py").is_file():
        sys.exit(f"error: no structdiag sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import structdiag
    import_s = perf_counter() - t0
    if Path(structdiag.__file__).resolve().parent != SRC / "structdiag":
        sys.exit(f"error: imported structdiag from {structdiag.__file__}")
    return structdiag, import_s


def child_env() -> dict:
    """Environment for CLI children: absolute src path, one BLAS thread."""
    env = dict(os.environ)
    env.update(THREADS)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ.get(k) for k in THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def cli_probes(env, cwd) -> dict:
    """Interpreter start and import costs of a fresh child (median ms)."""
    runs = defaultdict(list)
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd,
                       check=True, timeout=60)
        runs["cli.interpreter_ms"].append((perf_counter() - t0) * 1e3)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import structdiag"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
            timeout=60)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e3
                except ValueError:
                    continue
        for key, module in (("cli.import_numpy_ms", "numpy"),
                            ("cli.import_ms", "structdiag"),
                            ("cli.import_scipy_linalg_ms", "scipy.linalg")):
            runs[key].append(cumulative.get(module, float("nan")))
    return {k: (statistics.median(v), "ms", len(v)) for k, v in runs.items()}


def make_workload(name, sd, seed, workdir):
    import workloads
    if name == "desk-100":
        return workloads.DeskWorkload(sd, seed)
    if name == "small-mixed":
        return workloads.MixedWorkload(sd, seed)
    return workloads.CliWorkload(sd, seed, str(workdir), child_env())


def measure(wl, seconds, tracer):
    """Closed loop over the workload's units until ``seconds`` have passed.

    With a tracer, chain 2k is traced and chain 2k+1 runs the same unit
    untraced, and the loop also runs until the count window is full."""
    samples = defaultdict(list)
    ops = []
    traced_ids, traced_ms, plain_ms = [], [], []
    units = wl.units()
    # Untraced chains are bracketed by yardsticks; each is scaled by the
    # mean of the one before and the one after it.
    y_before = wl.yardstick() if tracer is None else None
    start = perf_counter()
    i = 0
    while True:
        unit = units[(i // 2 if tracer is not None else i) % len(units)]
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.install()
            span = tracer.open_chain(i)
        t0 = perf_counter()
        try:
            result = wl.run(unit, tracer if traced else None)
        finally:
            ms = (perf_counter() - t0) * 1e3
            if traced:
                tracer.close_chain(span)
                tracer.uninstall()
        if tracer is None:
            y_after = wl.yardstick()
            y = (y_before + y_after) / 2
            y_before = y_after
            samples["yardstick_ms"].append(y * 1e3)
            samples["chain_norm_ms"].append(ms * wl.nominal_yardstick_s / y)
        ops += wl.check(unit, result)
        if traced:
            traced_ids.append(i)
            traced_ms.append(ms)
        else:
            plain_ms.append(ms)
            samples["chain_ms"].append(ms)
            for name, value in wl.samples(result):
                samples[name].append(value)
        i += 1
        done = perf_counter() - start >= seconds
        if tracer is not None:
            done = done and len(traced_ids) >= wl.count_window and plain_ms
        if done:
            return samples, ops, traced_ids, traced_ms, plain_ms


def end_to_end(samples, setup, setup_s, ops) -> dict:
    out = {f"setup.{k}": (v, "s", n) for k, (v, n) in setup.items()}
    wall = sum(v for v, _ in setup.values())
    out["setup.wall_s"] = (wall, "s", SETUP_REPEATS)
    out["setup_s"] = (setup_s, "s", SETUP_REPEATS)
    for name, values in sorted(samples.items()):
        out[f"{name}.p50"] = (statistics.median(values), "ms", len(values))
        # p90 only where ten samples lie beyond it.
        if len(values) >= 100:
            out[f"{name}.p90"] = (statistics.quantiles(values, n=10)[-1],
                                  "ms", len(values))
    failed = sum(not op.ok for op in ops)
    out["failed_share"] = (failed / max(1, len(ops)), "share", len(ops))
    return out


def per_layer(wl, tracer, traced_ids, traced_ms, plain_ms, gen_ms,
              workdir) -> dict:
    import numpy as np

    import layers
    window = traced_ids[:wl.count_window]
    out = {k: (v, unit, len(window) if unit in ("count", "B", "share")
               else len(traced_ids))
           for k, (v, unit) in layers.summarize(
               tracer.spans, traced_ids, window,
               tracer.covered.values()).items()}
    out.update(cli_probes(child_env(), str(workdir)))
    out["generators.instance_ms"] = (statistics.median(gen_ms), "ms",
                                     len(gen_ms))
    a = wl.yardstick_input()
    eig_ms = []
    for _ in range(5):
        t0 = perf_counter()
        np.linalg.eig(a)
        eig_ms.append((perf_counter() - t0) * 1e3)
    out["yardstick.eig_ms"] = (statistics.median(eig_ms), "ms", 5)
    dec = layers.entry_durations(tracer.spans, traced_ids,
                                 "decompose.decompose_additive")
    ratio = statistics.median(dec) / out["yardstick.eig_ms"][0] if dec else 0.0
    out["yardstick.decompose_over_eig"] = (ratio, "x", len(dec))
    out["trace.overhead_ms"] = (statistics.median(traced_ms)
                                - statistics.median(plain_ms), "ms",
                                len(traced_ms))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sd, import_s = import_package()
    sys.path.insert(0, str(HERE))
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    machine = machine_record()
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(args.workload, sd, args.seed, workdir)
        # Each set-up repeat is scaled by the yardsticks before and after
        # it, the import by the first one. The untimed yardstick first
        # takes the cold-start cost of the reference work itself.
        builds, warm_ups, gen_ms, scaled = [], [], [], []
        wl.yardstick()
        y_before = y_first = wl.yardstick()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            made = wl.build()
            t1 = perf_counter()
            wl.warm_up()
            t2 = perf_counter()
            y_after = wl.yardstick()
            builds.append(t1 - t0)
            warm_ups.append(t2 - t1)
            gen_ms.append((t1 - t0) * 1e3 / made)
            scaled.append((t2 - t0) * 2 / (y_before + y_after))
            y_before = y_after
        setup = {"import_s": (import_s, 1),
                 "build_s": (statistics.median(builds), SETUP_REPEATS),
                 "warm_up_s": (statistics.median(warm_ups), SETUP_REPEATS)}
        setup_s = wl.nominal_yardstick_s * (import_s / y_first
                                            + statistics.median(scaled))

        tracer = tracing.Tracer(sd) if args.trace else None
        samples, ops, traced_ids, traced_ms, plain_ms = measure(
            wl, args.seconds, tracer)
        if args.trace:
            metrics = per_layer(wl, tracer, traced_ids, traced_ms, plain_ms,
                                gen_ms, workdir)
        else:
            metrics = end_to_end(samples, setup, setup_s, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_end"] = list(os.getloadavg())

    failed = [op for op in ops if not op.ok]
    correct = bool(ops) and not failed
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} operations, {len(failed)} failed")
    print("# machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit, n) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit} n={n}")
    for op in failed[:5]:
        print(f"# failed {op.step}: {op.why[:200]}")
    if tracer is not None:
        print("# self-check: {:g} kernel calls outside a layer span, {:g} "
              "mismatch of eigen calls and eig calls inside eigen, layer "
              "self times sum to "
              "{:.6g} of {:.6g} ms per chain".format(*(metrics[k][0] for k in (
                  "trace.uncovered_kernel_calls", "trace.eigen_eig_mismatch",
                  "trace.self_sum_ms", "trace.chain_ms"))))

    missing = sorted(set(declared) - set(metrics))
    if missing:
        sys.exit(f"error: declared metrics not measured: {missing}")
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u, "n": n}
                    for k, (v, u, n) in metrics.items()},
        "failures": [{"step": op.step, "why": op.why}
                     for op in failed[:50]],
    }
    if tracer is not None:
        record["wrapped"] = tracer.patched
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": declared[k]}
                    for k in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
