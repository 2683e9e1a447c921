"""The three workloads: their inputs, chains and output checks.

desk-100     the library chain at 2n=100 on planted normal instances,
             rotating through the four structure kinds.
small-mixed  the library at 2n=16 on a fixed seeded mix: 40% planted,
             30% generic non-normal, 15% unbalanced counterexamples and
             15% near-critical planted instances. Its chain is one
             session of 20 such instances, so every chain holds the mix.
cli-session  one fresh ``python -m structdiag`` process per subcommand on
             2n=32 files, as a shell user runs it.

Every operation is checked after its chain has been timed: against the
planted answer where there is one, and otherwise against a certificate the
benchmark recomputes (see checks.py). Any failure makes a run incorrect.

Near-critical instances keep delta in [1e-4, 1e-2]. Closer to the axis the
program fails on its own: NotDiagonalizable at delta ~1e-9,
NotLagrangianFrame from unitary_refine up to ~2e-6, and a wrong
"unbalanced" decision near 1.1e-8 to 1.6e-8. Those inputs are left out of
the timed workload so that every operation it times succeeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.linalg

import checks
import tracing

# Alternating J and R forms, so that any two consecutive units cover both.
KINDS = ("skew-hamiltonian", "per-hermitian", "hamiltonian",
         "perskew-hermitian")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One checked operation."""

    step: str
    ok: bool
    why: str = ""


@dataclass
class Instance:
    klass: str                 # planted | generic | counter | near
    kind: str
    form: object
    a: np.ndarray
    selfadjoint: bool
    planted: np.ndarray | None = None      # planted full diagonal
    n_factor: np.ndarray | None = None     # N for reconstruction
    recon_a: np.ndarray | None = None      # N +/- N*, known
    recon_diagonal: np.ndarray | None = None
    delta: float | None = None

    @property
    def tag(self) -> str:
        return self.form.tag.value


def _call(fn, *args):
    t0 = perf_counter()
    try:
        out, exc = fn(*args), None
    except Exception as e:  # a raising call is a measured outcome
        out, exc = None, e
    return out, exc, (perf_counter() - t0) * 1e3


def planted(sd, kind, n, seed, rng, delta=None) -> Instance:
    """A planted normal instance. With ``delta``, one core entry moves to
    modulus 0.3 at distance delta from the critical axis (outside the
    generator's [0.5, 2] band, so it collides with no planted value)."""
    inst = sd.random_structured_diagonalizable(kind, n, seed)
    form = sd.form_for_kind(kind, n)
    variant = sd.variant_for_kind(kind)
    selfadjoint = variant is sd.Variant.SELFADJOINT
    q = inst.transform
    core = inst.core.copy()
    a, full = inst.matrix, inst.full_diagonal
    if delta is not None:
        along = math.sqrt(0.09 - delta * delta) * rng.choice((-1.0, 1.0))
        off = delta * rng.choice((-1.0, 1.0))
        # The critical axis is the real one for selfadjoint kinds.
        core[rng.randrange(n)] = (complex(along, off) if selfadjoint
                                  else complex(off, along))
        full = sd.assemble_core_diagonal(core, form.tag, variant)
        a = q @ np.diag(full) @ q.conj().T
    core_r = core.copy()
    core_r[rng.sample(range(n), n // 4)] = 0.0
    v = q[:, :n]
    recon_full = sd.assemble_core_diagonal(core_r, form.tag, variant)
    return Instance(
        klass="planted" if delta is None else "near", kind=kind, form=form, a=a,
        selfadjoint=selfadjoint, planted=full,
        n_factor=v @ np.diag(core_r) @ v.conj().T,
        recon_a=q @ np.diag(recon_full) @ q.conj().T,
        recon_diagonal=recon_full, delta=delta)


def generic(sd, kind, n, seed) -> Instance:
    variant = sd.variant_for_kind(kind)
    return Instance("generic", kind, sd.form_for_kind(kind, n),
                    sd.random_structured(kind, n, seed),
                    variant is sd.Variant.SELFADJOINT)


def counterexample(sd, n, seed) -> Instance:
    return Instance("counter", "skew-hamiltonian", sd.symplectic_form(n),
                    sd.counterexample_unbalanced(n, seed), True)


# -- yardsticks -------------------------------------------------------------
#
# On a shared 2-core Xeon VM (OpenBLAS 0.3.31, one thread) the speed of the
# same chain on the same input swung by 20-40% over tens of seconds, in CPU
# time and wall time alike, and the ratio to a single eig did not cancel
# it. Each workload therefore times a fixed piece of reference work that
# does not involve the package, weighted like the work of its chains,
# between chains, and chain times are scaled to the speed at which that
# yardstick takes ``nominal_yardstick_s``. There, over ten seeds, this cut
# the spread of the median chain from 0.17-0.29 to 0.03-0.08 of the median.
# At 2n=16 about half of a chain is Python-level work, and a LAPACK-only
# basket swung more than the chain did; with a Python-level part taking
# about three quarters of the yardstick, the scaled median of six 40 s runs
# varied by 0.3% (standard deviation) instead of 4%.


def fixed_matrix(m: int) -> np.ndarray:
    """A fixed complex matrix, the same for every seed."""
    rng = np.random.default_rng(20191027)
    return rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))


def lapack_basket_s(a, reps: int, svd=1, eig=1, qr=1, eigh=1, lu=1) -> float:
    """Median over ``reps`` of the time of a basket of the LAPACK kernels
    the library uses, on ``a``; the counts set each kernel's weight."""
    h = a + a.conj().T
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(svd):
            np.linalg.svd(a, compute_uv=False)
        for _ in range(eig):
            np.linalg.eig(a)
        for _ in range(qr):
            np.linalg.qr(a[:, : a.shape[1] // 4])
        for _ in range(eigh):
            np.linalg.eigh(h)
        for _ in range(lu):
            scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), a)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def python_basket_s(a, reps: int, loops: int = 40) -> float:
    """Median over ``reps`` of ``loops`` rounds of the Python-level work the
    library does on small inputs: small-array products and tolerance tests,
    sorting and clustering eigenvalues in a loop, stacking columns and
    raising an exception."""
    values = np.linalg.eigvals(a)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(loops):
            h = a @ a.conj().T
            np.linalg.norm(h - h.conj().T) <= 1e-9 * np.linalg.norm(h)
            groups = []
            for z in values[np.argsort(-np.abs(values))].tolist():
                for g in groups:
                    if abs(g[0] - z) < 0.1:
                        g.append(z)
                        break
                else:
                    groups.append([z])
            np.column_stack([a[:, k] for k in range(4)])
            try:
                raise ValueError(len(groups))
            except ValueError:
                pass
        times.append(perf_counter() - t0)
    return statistics.median(times)


# -- library chain --------------------------------------------------------

def library_chain(sd, inst: Instance) -> list:
    """Call the public entry points on one instance: (step, out, exc, ms)."""
    a, form = inst.a, inst.form
    rec = []

    def step(name, fn, *args):
        out, exc, ms = _call(fn, *args)
        rec.append((name, out, exc, ms))
        return out

    step("classify", sd.classify, a, form)
    report = step("report", sd.diagonalizability_report, a, form)
    if inst.klass in ("planted", "near"):
        sign = sd.Sign.PLUS if inst.selfadjoint else sd.Sign.MINUS
        step("diagonalize", sd.structured_diagonalize, a, form)
        step("unitary", sd.unitary_refine, a, form)
        step("decompose", sd.decompose_additive, a, form)
        step("reconstruct", sd.reconstruct_from_normal_factor,
             inst.n_factor, sign, form)
    elif inst.klass == "generic":
        if report is not None and report.decision:
            step("diagonalize", sd.structured_diagonalize, a, form)
        step("unitary", sd.unitary_refine, a, form)
    else:
        step("diagonalize", sd.structured_diagonalize, a, form)
    return rec


_EXPECTED_RAISE = {
    ("generic", "unitary"): "NotNormal",
    ("counter", "diagonalize"): "NotStructuredDiagonalizable",
}


def check_library(sd, inst: Instance, rec) -> list[Op]:
    ops = []
    match = sd.spectral.eigenvalues_match
    b = inst.form.matrix
    n = b.shape[0] // 2
    for name, out, exc, _ in rec:
        want_exc = _EXPECTED_RAISE.get((inst.klass, name))
        fails: list[str] = []
        if exc is not None:
            if type(exc).__name__ != want_exc:
                fails.append(f"raised {type(exc).__name__}: {exc}")
            elif want_exc == "NotStructuredDiagonalizable" and (
                    exc.report is None or exc.report.decision):
                fails.append("no negative report attached")
        elif want_exc is not None:
            fails.append(f"returned where {want_exc} was expected")
        elif name == "classify":
            variant_ok = (out.selfadjoint.ok if inst.selfadjoint
                          else out.skewadjoint.ok)
            # Planted inputs are normal by construction, generic ones are
            # not; the counterexample's normality is not part of its answer.
            normal_wrong = (
                (inst.klass in ("planted", "near") and not out.euclidean_normal.ok)
                or (inst.klass == "generic" and out.euclidean_normal.ok))
            if not variant_ok or normal_wrong:
                fails.append(f"structures {out.true_names()}")
        elif name == "report":
            if inst.klass in ("planted", "near") and not out.decision:
                fails.append(f"decision no on a planted instance: {out.reason}")
            elif inst.klass == "counter" and out.decision:
                fails.append("decision yes on the unbalanced counterexample")
            elif (inst.klass == "generic" and not out.decision
                  and all(e.balanced for e in out.per_eigenvalue)):
                fails.append("decision no without an unbalanced eigenvalue")
        elif name in ("diagonalize", "unitary"):
            fails += checks.diagonalization(inst.a, b, out.transform,
                                            out.full_diagonal,
                                            unitary=name == "unitary")
            if inst.planted is not None:
                fails += checks.spectrum_matches(out.full_diagonal,
                                                 inst.planted, match)
        elif name == "decompose":
            fails += checks.decomposition(inst.a, b, out.normal_factor,
                                          plus=inst.selfadjoint)
            # N carries one eigenvalue of each mirrored pair and n zeros.
            found = np.linalg.eigvals(out.normal_factor)
            core = found[np.argsort(-np.abs(found))[:n]]
            fails += checks.spectrum_matches(
                checks.full_diagonal(core, inst.tag, inst.selfadjoint),
                inst.planted, match)
        elif name == "reconstruct":
            a2, diag = out
            if checks.rel(a2, inst.recon_a) > checks.GUARANTEE:
                fails.append("reconstructed A differs from N +/- N*")
            fails += checks.diagonalization(a2, b, diag.transform,
                                            diag.full_diagonal, unitary=True)
            fails += checks.lagrangian_frame(diag.transform[:, :n], b)
            fails += checks.spectrum_matches(diag.full_diagonal,
                                             inst.recon_diagonal, match)
        if fails and inst.delta is not None:
            fails.insert(0, f"delta {inst.delta:.2e}")
        ops.append(Op(name, not fails, "; ".join(fails)))
    return ops


class DeskWorkload:
    """Planted normal instances at 2n=100, four kinds in rotation."""

    n = 50
    pool_size = 32
    count_window = 8
    nominal_yardstick_s = 0.075

    def __init__(self, sd, seed):
        self.sd, self.seed = sd, seed
        self.reference = fixed_matrix(2 * self.n)

    def yardstick(self) -> float:
        # Weighted like the chain's kernel time at the seed: ~60% rank
        # SVDs, ~20% eig, a few QR and LU factorizations.
        return lapack_basket_s(self.reference, 1, svd=40, eig=1, qr=4,
                               eigh=0, lu=2)

    def build(self):
        rng = random.Random(self.seed)
        self.pool = [planted(self.sd, KINDS[i % 4], self.n,
                             rng.randrange(2 ** 32), rng)
                     for i in range(self.pool_size)]
        return len(self.pool)

    def warm_up(self):
        library_chain(self.sd, self.pool[0])

    def units(self):
        return self.pool

    def run(self, unit, tracer):
        return library_chain(self.sd, unit)

    def check(self, unit, rec):
        return check_library(self.sd, unit, rec)

    def samples(self, rec):
        return [(f"{name}_ms", ms) for name, _, _, ms in rec]

    def yardstick_input(self):
        return self.pool[0].a


class MixedWorkload:
    """Sessions of 20 instances at 2n=16 in the fixed mix."""

    n = 8
    sessions = 16
    count_window = 4
    mix = (("planted", 8), ("generic", 6), ("counter", 3), ("near", 3))
    nominal_yardstick_s = 0.0020

    def __init__(self, sd, seed):
        self.sd, self.seed = sd, seed
        self.reference = fixed_matrix(2 * self.n)

    def yardstick(self) -> float:
        return (lapack_basket_s(self.reference, 15)
                + python_basket_s(self.reference, 15))

    def build(self):
        rng = random.Random(self.seed)
        sd, n = self.sd, self.n
        # delta is log-uniform in [1e-4, 1e-2], drawn one per equal stratum
        # of the exponent so that every seed covers the whole range.
        near = dict(self.mix)["near"] * self.sessions
        deltas = [10.0 ** (-4.0 + 2.0 * (k + rng.random()) / near)
                  for k in range(near)]
        rng.shuffle(deltas)
        self.pool = []
        made = 0
        for _ in range(self.sessions):
            session = []
            for klass, count in self.mix:
                for i in range(count):
                    kind = KINDS[(i + len(self.pool)) % 4]
                    s = rng.randrange(2 ** 32)
                    if klass == "planted":
                        session.append(planted(sd, kind, n, s, rng))
                    elif klass == "near":
                        session.append(planted(sd, kind, n, s, rng,
                                               deltas.pop()))
                    elif klass == "generic":
                        session.append(generic(sd, kind, n, s))
                    else:
                        session.append(counterexample(sd, n, s))
            rng.shuffle(session)
            self.pool.append(session)
            made += len(session)
        return made

    def warm_up(self):
        for inst in self.pool[0]:
            library_chain(self.sd, inst)

    def units(self):
        return self.pool

    def run(self, session, tracer):
        return [library_chain(self.sd, inst) for inst in session]

    def check(self, session, recs):
        return [op for inst, rec in zip(session, recs)
                for op in check_library(self.sd, inst, rec)]

    def samples(self, recs):
        return [(f"{name}_ms", ms) for rec in recs for name, _, _, ms in rec]

    def yardstick_input(self):
        return self.pool[0][0].a


# -- CLI session ------------------------------------------------------------

@dataclass
class CliRun:
    step: str
    args: list
    code: int
    stdout: str
    stderr: str
    ms: float


class CliWorkload:
    """One fresh process per subcommand on 2n=32 files."""

    n = 16
    pool_size = 32
    batch_files = 8
    jobs = 2
    count_window = 2
    nominal_yardstick_s = 0.40

    def __init__(self, sd, seed, workdir, env):
        self.sd, self.seed, self.workdir, self.env = sd, seed, workdir, env

    def yardstick(self) -> float:
        """The faster of two fresh interpreters importing the package's
        dependencies: a chain is eight processes, so one process here
        would carry more noise than the chain it scales."""
        times = []
        for _ in range(2):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                           cwd=self.workdir, env=self.env, check=True,
                           timeout=CLI_TIMEOUT_S)
            times.append(perf_counter() - t0)
        return min(times)

    def build(self):
        rng = random.Random(self.seed)
        sd, n = self.sd, self.n
        self.pool = [(KINDS[i % 4], rng.randrange(2 ** 32))
                     for i in range(self.pool_size)]
        self.batches = {}
        for form, kinds in (("symplectic", KINDS[0::2]),
                            ("perplectic", KINDS[1::2])):
            names = []
            for i in range(self.batch_files):
                inst = sd.random_structured_diagonalizable(
                    kinds[i % 2], n, rng.randrange(2 ** 32))
                name = f"batch-{form}-{i}.mtx"
                sd.write_matrix(os.path.join(self.workdir, name), inst.matrix)
                names.append(name)
            self.batches[form] = names
        return 2 * self.batch_files

    def warm_up(self):
        self._cli(["--version"], None)

    def units(self):
        return self.pool

    def _cli(self, args, tracer) -> CliRun:
        step = ("startup" if args[0] == "--version"
                else "batch" if "--jobs" in args else args[0])
        if tracer is None:
            argv = [sys.executable, "-m", "structdiag", *args]
            spans_path = None
        else:
            spans_path = os.path.join(self.workdir, "spans.json")
            argv = [sys.executable, CHILD, spans_path, *args]
            span = tracer.open_process(f"process.{step}")
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        ms = (perf_counter() - t0) * 1e3
        if spans_path is not None:
            child = []
            if os.path.exists(spans_path):
                child = tracing.load_spans(spans_path)
                os.remove(spans_path)
            tracer.close_process(span, child)
        return CliRun(step, args, proc.returncode, proc.stdout, proc.stderr, ms)

    def run(self, unit, tracer):
        kind, seed = unit
        form = "symplectic" if kind in KINDS[0::2] else "perplectic"
        x = "inst.mtx"
        return [
            self._cli(["generate", "--kind", f"{kind}-diagonalizable",
                       "--n", str(self.n), "--seed", str(seed), x], tracer),
            self._cli(["analyze", "--form", form, "--expect",
                       "structure-diagonalizable", x], tracer),
            self._cli(["diagonalize", "--form", form, "--unitary",
                       "--out", "fac", x], tracer),
            self._cli(["decompose", "--form", form, "--out", "fac", x], tracer),
            self._cli(["verify", "--form", form, "--mode", "decomp", x,
                       "fac.N.mtx"], tracer),
            self._cli(["verify", "--form", form, "--mode", "diag", x,
                       "fac.S.mtx"], tracer),
            self._cli(["--version"], tracer),
            self._cli(["analyze", "--form", form, "--jobs", str(self.jobs),
                       "--expect", "structure-diagonalizable",
                       *self.batches[form]], tracer),
        ]

    def samples(self, runs):
        return [(f"cli_{r.step}_ms", r.ms) for r in runs]

    def _read_outputs(self) -> dict:
        files = {}
        for name in ("inst.mtx", "fac.S.mtx", "fac.D.mtx", "fac.N.mtx"):
            try:
                files[name] = self.sd.read_matrix(os.path.join(self.workdir,
                                                               name))
            except Exception as e:  # a missing or bad file fails its step
                files[name] = e
        return files

    def check(self, unit, runs):
        # Runs before the next chain overwrites the output files.
        kind, seed = unit
        files = self._read_outputs()
        sd, n = self.sd, self.n
        inst = sd.random_structured_diagonalizable(kind, n, seed)
        selfadjoint = sd.variant_for_kind(kind) is sd.Variant.SELFADJOINT
        b = sd.form_for_kind(kind, n).matrix
        a = files["inst.mtx"]
        match = sd.spectral.eigenvalues_match
        ops = []
        for r in runs:
            fails = []
            if r.code != 0:
                fails.append(f"exit {r.code}: {r.stderr.strip()[-300:]}")
            else:
                fails += self._check_run(r, inst, a, b, files, selfadjoint,
                                         match)
            ops.append(Op(f"cli_{r.step}", not fails, "; ".join(fails)))
        return ops

    def _check_run(self, r, inst, a, b, files, selfadjoint, match):
        sub = r.args[0]
        if sub == "--version":
            return [] if r.stdout.strip() == self.sd.__version__ else [
                f"version {r.stdout.strip()!r}"]
        if sub == "generate":
            with open(os.path.join(self.workdir, "inst.mtx"), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            if isinstance(a, Exception) or r.stdout.strip() != digest:
                return ["digest or file mismatch"]
            return [] if np.array_equal(a, inst.matrix) else [
                "generated matrix differs from the library's"]
        if isinstance(a, Exception):
            return ["input file unreadable"]
        try:
            docs = [json.loads(line) for line in r.stdout.splitlines()
                    if line.strip()] if "--jobs" in r.args else [
                        json.loads(r.stdout)]
        except ValueError:
            return ["stdout is not JSON"]
        payloads = [d["payload"] for d in docs]
        if sub == "analyze":
            want = len(r.args) - r.args.index("structure-diagonalizable") - 1
            if len(payloads) != want:
                return [f"{len(payloads)} documents for {want} files"]
            return [] if all((p.get("diagonalizability") or {}).get("decision")
                             is True for p in payloads) else ["decision not yes"]
        p = payloads[0]
        if sub == "diagonalize":
            s, d = files["fac.S.mtx"], files["fac.D.mtx"]
            if isinstance(s, Exception) or isinstance(d, Exception):
                return ["factor files unreadable"]
            fails = [] if p.get("unitary") is True else ["not unitary"]
            fails += checks.diagonalization(a, b, s, np.diag(d), unitary=True)
            return fails + checks.spectrum_matches(np.diag(d),
                                                   inst.full_diagonal, match)
        if sub == "decompose":
            nf = files["fac.N.mtx"]
            if isinstance(nf, Exception):
                return ["factor file unreadable"]
            want_sign = "plus" if selfadjoint else "minus"
            fails = [] if p.get("sign") == want_sign else [f"sign {p.get('sign')}"]
            return fails + checks.decomposition(a, b, nf, plus=selfadjoint)
        if sub == "verify":
            return [] if p.get("passed") is True else ["verify did not pass"]
        return [f"unchecked subcommand {sub}"]

    def yardstick_input(self):
        return self.sd.read_matrix(os.path.join(self.workdir,
                                                self.batches["symplectic"][0]))
