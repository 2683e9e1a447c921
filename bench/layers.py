"""Per-layer metrics from the spans of a traced run.

Layers are the package's modules (the span name before the first dot),
``lapack`` for the wrapped kernels, ``process`` for the parent-side span
of a CLI child (interpreter start, imports, argument parsing and exit)
and ``bench`` for the benchmark's own glue between calls in a chain.

Times are per chain over every traced chain. Counts are per chain over a
fixed, seed-determined window of chains, so that two runs with one seed
give identical counts whatever their length.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import (CHAIN, EXC, EXTRA, FACTORIZATIONS, KERNELS, NAME,
                     PARENT, T0, T1)

ENTRIES = {
    "structure.classify": "classify",
    "diagonalize.diagonalizability_report": "diagonalizability_report",
    "diagonalize.structured_diagonalize": "structured_diagonalize",
    "diagonalize.unitary_refine": "unitary_refine",
    "decompose.decompose_additive": "decompose_additive",
    "decompose.reconstruct_from_normal_factor":
        "reconstruct_from_normal_factor",
}

LAYERS = ("core", "forms", "spectral", "structure", "diagonalize",
          "decompose", "generators", "mmio", "cli", "lapack", "process",
          "bench")
PACKAGE_LAYERS = LAYERS[:9]

# Raise sites reported even when a run sees none of them, so that every
# workload prints the same names; any other (layer, error) pair is added
# when it occurs and counted in errors.raised.total.
ERRORS = (("diagonalize", "NotNormal"),
          ("diagonalize", "NotStructuredDiagonalizable"),
          ("diagonalize", "NotDiagonalizable"),
          ("structure", "NotLagrangianFrame"))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Duration minus the part of it that child spans cover (seconds)."""
    covered = [0.0] * len(spans)
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            lo, hi = max(s[T0], parent[T0]), min(s[T1], parent[T1])
            covered[p] += max(0.0, hi - lo)
    return [s[T1] - s[T0] - c for s, c in zip(spans, covered)]


def _outermost_entry(spans, i):
    """Index of the outermost entry-point span enclosing span i, or -1."""
    found = -1
    while i >= 0:
        if spans[i][NAME] in ENTRIES:
            found = i
        i = spans[i][PARENT]
    return found


def summarize(spans, traced, window, functions) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; ``functions`` names every traced function span."""
    traced, window = set(traced), set(window)
    n_all, n_win = max(1, len(traced)), max(1, len(window))
    selfs = self_times(spans)
    children_exc = defaultdict(set)
    for s in spans:
        if s[PARENT] >= 0 and s[EXC] is not None:
            children_exc[s[PARENT]].add(s[EXC])

    calls = defaultdict(int)
    self_ms = defaultdict(float)
    layer_ms = defaultdict(float)
    raised = defaultdict(int)
    entry_calls = defaultdict(int)
    entry_kernels = defaultdict(int)
    chain_ms = 0.0
    on_form = rank_svds = singleton_svds = 0
    eig_in_eigen = uncovered = 0
    bytes_read = bytes_written = 0

    for i, s in enumerate(spans):
        if s[CHAIN] not in traced:
            continue
        name, layer = s[NAME], layer_of(s[NAME])
        self_ms[name] += selfs[i] * 1e3
        layer_ms[layer] += selfs[i] * 1e3
        if name == "bench.chain":
            chain_ms += (s[T1] - s[T0]) * 1e3
        if s[CHAIN] not in window:
            continue
        calls[name] += 1
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        if s[EXC] is not None and s[EXC] not in children_exc[i]:
            raised[(layer, s[EXC][0])] += 1
        if name in ENTRIES and _outermost_entry(spans, i) == i:
            entry_calls[ENTRIES[name]] += 1
        if layer == "lapack":
            kernel = name.split(".", 1)[1]
            if layer_of(parent) not in PACKAGE_LAYERS:
                uncovered += 1
            if kernel == "eig" and parent == "spectral.eigen":
                eig_in_eigen += 1
            if kernel == "lu_factor" and s[EXTRA]:
                on_form += 1
            rank_svd = kernel == "svd" and parent == "spectral.is_diagonalizable"
            if rank_svd:
                rank_svds += 1
                singleton_svds += bool(s[EXTRA])
            entry = _outermost_entry(spans, i)
            if entry >= 0:
                e = ENTRIES[spans[entry][NAME]]
                entry_kernels[(e, kernel)] += 1
                entry_kernels[(e, "rank_svd")] += rank_svd
        elif name == "mmio.read_matrix" and s[EXTRA]:
            bytes_read += s[EXTRA]
        elif name == "mmio.write_matrix" and s[EXTRA]:
            bytes_written += s[EXTRA]

    out: dict[str, tuple[float, str]] = {}

    def count(key, value):
        out[key] = (value / n_win, "count")

    def ms(key, value):
        out[key] = (value / n_all, "ms")

    for name in sorted(set(functions) | set(calls) | set(self_ms)):
        if layer_of(name) in PACKAGE_LAYERS:
            count(f"{name}.calls", calls[name])
            ms(f"{name}.self_ms", self_ms[name])
    for layer in LAYERS:
        ms(f"layer.{layer}.self_ms", layer_ms[layer])
    for k in KERNELS:
        count(f"lapack.{k}.calls", calls[f"lapack.{k}"])
        ms(f"lapack.{k}.ms", self_ms[f"lapack.{k}"])
    count("lapack.lu_factor.on_form", on_form)
    count("spectral.is_diagonalizable.svd_calls", rank_svds)
    out["spectral.singleton_svd_share"] = (
        singleton_svds / rank_svds if rank_svds else 0.0, "share")
    for e in ENTRIES.values():
        n = entry_calls[e]
        out[f"{e}.calls"] = (n / n_win, "count")
        per_call = {k: entry_kernels[(e, k)] for k in
                    ("eig", "svd", "rank_svd", "lu_factor")}
        per_call["factorizations"] = sum(entry_kernels[(e, k)]
                                         for k in FACTORIZATIONS)
        for k, v in per_call.items():
            key = k if k == "factorizations" else f"{k}_calls"
            out[f"{e}.{key}"] = (v / n if n else 0.0, "count")
    for layer, exc in set(ERRORS) | set(raised):
        count(f"{layer}.raised.{exc}", raised[(layer, exc)])
    count("errors.raised.total", sum(raised.values()))
    out["mmio.bytes_read"] = (bytes_read / n_win, "B")
    out["mmio.bytes_written"] = (bytes_written / n_win, "B")
    ms("trace.chain_ms", chain_ms)
    ms("trace.self_sum_ms", sum(layer_ms.values()))
    count("trace.uncovered_kernel_calls", uncovered)
    count("trace.eigen_eig_mismatch", abs(calls["spectral.eigen"] - eig_in_eigen))
    return out


def entry_durations(spans, traced, name) -> list[float]:
    """Durations (ms) of the outermost spans of an entry point."""
    traced = set(traced)
    return [(s[T1] - s[T0]) * 1e3 for i, s in enumerate(spans)
            if s[NAME] == name and s[CHAIN] in traced
            and _outermost_entry(spans, i) == i]
