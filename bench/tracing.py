"""Span tracing of structdiag from outside the package.

``Tracer.install`` replaces every traced function of the package by a
wrapper in *every* module namespace that holds a reference to it (the
package re-imports names with ``from .x import y``, so patching only the
defining module would miss the inner calls), and wraps the LAPACK-backed
kernels of numpy.linalg and scipy.linalg. ``uninstall`` restores the
originals, so untraced chains run the unmodified program.

A span is a list ``[name, parent, chain, t0, t1, exc, extra]`` kept in
memory; spans are only recorded while a chain is open. Times come from
``time.perf_counter``, which is CLOCK_MONOTONIC on Linux, so spans written
by a CLI child process nest inside the parent's span for that process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from time import perf_counter

import numpy as np
import scipy.linalg

MODULES = ("core", "forms", "spectral", "structure", "diagonalize",
           "decompose", "generators", "mmio", "cli")

# Pure helpers called hundreds of times per chain; a span each would cost
# more than the work. Their time counts as self time of the caller.
LEAF_HELPERS = {"as_matrix", "herm_transpose", "fro", "rel_residual"}

NUMPY_KERNELS = ("eig", "svd", "qr", "eigh", "eigvalsh")
SCIPY_KERNELS = ("lu_factor", "lu_solve", "schur", "null_space")
KERNELS = NUMPY_KERNELS + SCIPY_KERNELS
# Every kernel except the triangular solve is a factorization.
FACTORIZATIONS = tuple(k for k in KERNELS if k != "lu_solve")

NAME, PARENT, CHAIN, T0, T1, EXC, EXTRA = range(7)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.chain = None
        self.last_eig_values = None
        self._patches: list[tuple[object, str, object]] = []
        self._form_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Exceptions stay referenced until their chain closes, so that the
        # ids identifying them within the chain cannot be reused.
        self._alive: list[BaseException] = []
        self.patched: list[str] = []
        self.covered = self._traced_functions()
        self._wrappers = {fn: self._wrap(fn, name)
                          for fn, name in self.covered.items()}

    # -- installation -------------------------------------------------

    def _traced_functions(self) -> dict:
        """Original function object -> span name ``<module>.<function>``."""
        names = {}
        for short in MODULES:
            mod = importlib.import_module(f"{self.package.__name__}.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and attr not in LEAF_HELPERS):
                    names[obj] = f"{short}.{attr}"
        return names

    def _namespaces(self):
        yield self.package
        for short in MODULES:
            yield importlib.import_module(f"{self.package.__name__}.{short}")

    def install(self) -> None:
        """Patch every reference; ``patched`` lists them as namespace.attr."""
        wrappers = self._wrappers
        patched = []
        for ns in self._namespaces():
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])
                    patched.append(f"{ns.__name__}.{attr}")
        self.patched = patched
        for k in NUMPY_KERNELS:
            self._patch(np.linalg, k, self._wrap_kernel(getattr(np.linalg, k), k))
        for k in SCIPY_KERNELS:
            self._patch(scipy.linalg, k,
                        self._wrap_kernel(getattr(scipy.linalg, k), k))

    def _patch(self, ns, attr, new):
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, new)

    def uninstall(self) -> None:
        for ns, attr, old in reversed(self._patches):
            setattr(ns, attr, old)
        self._patches.clear()

    # -- recording ----------------------------------------------------

    def _open(self, name):
        span = [name, self.stack[-1] if self.stack else -1, self.chain,
                perf_counter(), 0.0, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _record_exc(self, span, exc):
        if isinstance(exc, SystemExit):  # argparse's normal exit
            return
        span[EXC] = (type(exc).__name__, id(exc))
        self._alive.append(exc)

    def _close(self, span):
        span[T1] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name):
        tracer = self
        is_mmio = name in ("mmio.read_matrix", "mmio.write_matrix")
        keeps_input = name == "spectral.is_diagonalizable"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.chain is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            if keeps_input and args:
                span[EXTRA] = args[0]
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._record_exc(span, exc)
                raise
            finally:
                tracer._close(span)
                if keeps_input:
                    span[EXTRA] = None
            if is_mmio:
                span[EXTRA] = os.path.getsize(args[0])
            return out

        return wrapper

    def _wrap_kernel(self, fn, kernel):
        tracer = self
        name = f"lapack.{kernel}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.chain is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._record_exc(span, exc)
                raise
            finally:
                tracer._close(span)
            if kernel == "eig":
                tracer.last_eig_values = out[0]
            elif kernel == "lu_factor":
                span[EXTRA] = tracer._is_form_matrix(args[0])
            elif kernel == "svd":
                span[EXTRA] = tracer._svd_of_singleton(span, args[0])
            return out

        return wrapper

    def _is_form_matrix(self, a) -> bool:
        """True when ``a`` is exactly the J or R form matrix of its size.

        Built here with numpy so that the check itself records no span."""
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] % 2:
            return False
        n = a.shape[0] // 2
        if n not in self._form_cache:
            eye = np.eye(n)
            j = np.block([[0 * eye, eye], [-eye, 0 * eye]])
            self._form_cache[n] = (j, np.fliplr(np.eye(2 * n)))
        return any(np.array_equal(a, b) for b in self._form_cache[n])

    def _svd_of_singleton(self, span, shifted):
        """For a rank SVD of ``A - value I`` inside is_diagonalizable, True
        when ``value`` is a one-member eigenvalue cluster under the
        package's own rule (radius ``cluster_tol * max(1, max|lambda|)``)."""
        parent = span[PARENT]
        if parent < 0 or self.spans[parent][NAME] != "spectral.is_diagonalizable":
            return None
        a = self.spans[parent][EXTRA]
        values = self.last_eig_values
        if a is None or values is None or np.shape(shifted) != np.shape(a):
            return None
        value = complex(np.asarray(a)[0, 0] - np.asarray(shifted)[0, 0])
        radius = (self.package.DEFAULT_TOL.cluster_tol
                  * max(1.0, float(np.max(np.abs(values)))))
        return int(np.count_nonzero(np.abs(values - value) <= radius)) == 1

    # -- chains and child processes -------------------------------------

    def open_chain(self, chain_id, name="bench.chain"):
        self.chain = chain_id
        self.last_eig_values = None
        return self._open(name)

    def close_chain(self, span):
        self._close(span)
        self.chain = None
        self._alive.clear()

    def open_process(self, name) -> int:
        self._open(name)
        return self.stack[-1]

    def close_process(self, me: int, child_spans):
        """Close a parent-side process span and adopt the child's spans."""
        self._close(self.spans[me])
        base = len(self.spans)
        for s in child_spans:
            s = list(s)
            s[PARENT] = me if s[PARENT] < 0 else s[PARENT] + base
            s[CHAIN] = self.chain
            s[EXC] = None if s[EXC] is None else tuple(s[EXC])
            self.spans.append(s)

    def dump(self, path) -> None:
        """Write the spans as JSON for the parent process to adopt."""
        rows = []
        for s in self.spans:
            extra = s[EXTRA] if isinstance(s[EXTRA], (int, bool)) else None
            rows.append([s[NAME], s[PARENT], None, s[T0], s[T1], s[EXC], extra])
        with open(path, "w", encoding="ascii") as fh:
            json.dump(rows, fh)


def load_spans(path) -> list[list]:
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


