"""Command-line surface.

Subcommands: analyze, diagonalize, decompose, generate, verify. Reports
are JSON documents on stdout; matrices travel as MatrixMarket array
files. Exit codes: 0 success, 1 mathematical negative (_NEGATIVE_ERRORS),
2 parse/IO (_IO_ERRORS), 3 numerical breakdown (_NUMERICAL_ERRORS);
analyze exits with the largest code of its files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .core import (DEFAULT_TOL, FACTOR_GUARANTEE, TolerancePolicy, _check,
                   _within)
from .decompose import (
    AdditiveDecomposition,
    Sign,
    decompose_additive,
    verify_decomposition,
)
from .diagonalize import (
    _record,
    _store,
    diagonalizability_report,
    factor_residuals,
    structured_diagonalize,
    unitary_refine,
)
from .errors import (
    DimensionMismatch,
    FrameTooLarge,
    InertiaMismatch,
    InvalidSize,
    NoConvergence,
    NotAnnihilating,
    NotDiagonalizable,
    NotLagrangianFrame,
    NotNeutral,
    NotNeutralRange,
    NotNormal,
    NotStructured,
    NotStructuredDiagonalizable,
    NumericalBreakdown,
    ParseError,
    RankDeficient,
    SingularInput,
    SingularMatrix,
    SpectrumNotConjugateSymmetric,
    StructDiagError,
)
from .forms import InnerProduct, perplectic_form, symplectic_form, euclidean_form
from .generators import (
    STRUCTURE_KINDS,
    counterexample_unbalanced,
    random_automorphism,
    random_structured,
    random_structured_diagonalizable,
)
from .mmio import read_matrix, write_matrix
from .structure import FLAG_NAMES, STRUCTURE_NAMES, classify

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

# Every StructDiagError subclass is in exactly one of these tables.
_IO_ERRORS = (ParseError, OSError, DimensionMismatch, InvalidSize, ValueError)
_NEGATIVE_ERRORS = (NotStructured, NotStructuredDiagonalizable,
                    NotDiagonalizable, NotNormal, NotAnnihilating,
                    NotNeutralRange, SingularInput)
_NUMERICAL_ERRORS = (NumericalBreakdown, SingularMatrix, RankDeficient,
                     NoConvergence, InertiaMismatch,
                     SpectrumNotConjugateSymmetric, NotLagrangianFrame,
                     NotNeutral, FrameTooLarge)


def _failure(exc: Exception) -> tuple[int, str]:
    """An error's exit code, from the tables above, and stderr label."""
    if isinstance(exc, _IO_ERRORS):
        return EXIT_IO, "error"
    if isinstance(exc, _NUMERICAL_ERRORS):
        return EXIT_NUMERICAL, "numerical error"
    if isinstance(exc, _NEGATIVE_ERRORS):
        return EXIT_NEGATIVE, "negative result"
    return EXIT_NUMERICAL, "error"


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _document(command: str, digest: str, payload: dict,
              residuals: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "input_digest": digest,
        "payload": payload,
        "residuals": {k: float(v) for k, v in residuals.items()},
    }


def _strict(value):
    """value with every non-finite float (a residual that overflowed, say)
    replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(doc: dict, compact: bool = False) -> None:
    """Print doc as strict JSON: a non-finite float is written as null."""
    layout = {"separators": (",", ":")} if compact else {"indent": 2}
    print(json.dumps(_strict(doc), allow_nan=False, sort_keys=True,
                     **layout))


def _resolve_tol(tol_arg: float | None) -> TolerancePolicy:
    value = tol_arg
    if value is None:
        env = os.environ.get("STRUCTDIAG_TOL")
        if env is not None:
            try:
                value = float(env)
            except ValueError:
                raise ParseError(f"STRUCTDIAG_TOL={env!r} is not a number")
    if value is None:
        return DEFAULT_TOL
    return TolerancePolicy(structure_tol=value)


def _negative_document(command: str, digest: str,
                       exc: StructDiagError) -> dict:
    payload = {"error": type(exc).__name__, "reason": str(exc)}
    if isinstance(exc, NotStructuredDiagonalizable) and exc.report is not None:
        payload["diagonalizability"] = exc.report.to_dict()
    return _document(command, digest, payload, {})


def _form_for(name: str, dim: int) -> InnerProduct:
    if name == "euclidean":
        return euclidean_form(dim)
    if dim % 2 != 0:
        raise DimensionMismatch(
            f"the {name} form needs an even dimension, got {dim}")
    n = dim // 2
    return symplectic_form(n) if name == "symplectic" else perplectic_form(n)


def _load(path: str, form_name: str) -> tuple[np.ndarray, InnerProduct, str]:
    a = read_matrix(path)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParseError(f"{path}: matrix must be square, got {a.shape}")
    return a, _form_for(form_name, a.shape[0]), _digest(path)


def _analysis_payload(a: np.ndarray, form: InnerProduct,
                      tol: TolerancePolicy) -> tuple[dict, dict]:
    report = classify(a, form, tol)
    payload: dict = {"classification": report.to_dict()}
    residuals = {name: getattr(report, name).residual for name in FLAG_NAMES}
    if form.tag.value == "euclidean":
        payload["diagonalizability"] = None
        return payload, residuals
    if not (report.selfadjoint.ok or report.skewadjoint.ok):
        payload["diagonalizability"] = {
            "decision": None,
            "reason": "matrix is neither selfadjoint nor skewadjoint "
                      "for this form",
        }
        return payload, residuals
    try:
        # A hit on the record classify has just stored.
        diag_report = diagonalizability_report(a, form, tol)
    except (NotDiagonalizable, SpectrumNotConjugateSymmetric) as exc:
        # A selfadjoint A has a conjugate-symmetric spectrum in exact
        # arithmetic, so a failed pairing is roundoff: no evidence either way.
        payload["diagonalizability"] = {
            "decision": None,
            "diagonalizable": False if isinstance(exc, NotDiagonalizable)
            else None,
            "reason": str(exc),
        }
        return payload, residuals
    d = diag_report.to_dict()
    d["diagonalizable"] = True
    payload["diagonalizability"] = d
    return payload, residuals


_DECISION_NAMES = ("structure-diagonalizable", "symplectic-diagonalizable",
                   "perplectic-diagonalizable")


def _expect_satisfied(payload: dict, expect: str) -> bool:
    diag = payload.get("diagonalizability") or {}
    if expect in _DECISION_NAMES:
        return diag.get("decision") is True
    if expect == "diagonalizable":
        return bool(diag.get("diagonalizable"))
    return expect in payload["classification"]["structures"]


def _analyze_one(path: str, form_name: str, tol: TolerancePolicy,
                 expect: str | None) -> tuple[int, dict, str | None]:
    """One file's exit code and document, and if it raised, an error
    document and the stderr line, which names the file."""
    digest = None
    try:
        a, form, digest = _load(path, form_name)
        payload, residuals = _analysis_payload(a, form, tol)
    except (*_IO_ERRORS, StructDiagError) as exc:
        code, label = _failure(exc)
        doc = _negative_document("analyze", digest, exc)
        doc["payload"]["file"] = path
        # Parse errors name their file already.
        named = str(exc) if str(exc).startswith(path) else f"{path}: {exc}"
        return code, doc, f"{label}: {named}"
    payload["file"] = path
    doc = _document("analyze", digest, payload, residuals)
    code = EXIT_OK
    if expect is not None and not _expect_satisfied(payload, expect):
        payload["expect_failed"] = expect
        code = EXIT_NEGATIVE
    return code, doc, None


def cmd_analyze(args) -> int:
    """One document per file, in file order; the largest exit code."""
    tol = _resolve_tol(args.tol)
    # The pool starts all its workers at once: no more than there are files.
    jobs = min(max(1, args.jobs), len(args.files))
    compact = len(args.files) > 1
    worst = EXIT_OK
    if jobs == 1:
        results = [_analyze_one(p, args.form, tol, args.expect)
                   for p in args.files]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_analyze_one, p, args.form, tol,
                                   args.expect)
                       for p in args.files]
            results = [f.result() for f in futures]
    for code, doc, line in results:
        _emit(doc, compact)
        if line is not None:
            print(line, file=sys.stderr)
        worst = max(worst, code)
    return worst


def cmd_diagonalize(args) -> int:
    tol = _resolve_tol(args.tol)
    a, form, digest = _load(args.file, args.form)
    try:
        diag = unitary_refine(a, form, tol) if args.unitary \
            else structured_diagonalize(a, form, tol)
    except _NEGATIVE_ERRORS as exc:
        _emit(_negative_document("diagonalize", digest, exc))
        return EXIT_NEGATIVE
    write_matrix(f"{args.out}.S.mtx", diag.transform)
    write_matrix(f"{args.out}.D.mtx", diag.diagonal_matrix)
    residuals = {
        "automorphism": diag.residual_automorphism,
        "similarity": diag.residual_similarity,
    }
    payload = {
        "variant": diag.variant.value,
        "form": form.tag.value,
        "unitary": diag.unitary,
        "core": [[z.real, z.imag] for z in diag.core],
        "factors": {"transform": f"{args.out}.S.mtx",
                    "diagonal": f"{args.out}.D.mtx"},
    }
    _emit(_document("diagonalize", digest, payload, residuals))
    return EXIT_OK


def cmd_decompose(args) -> int:
    tol = _resolve_tol(args.tol)
    a, form, digest = _load(args.file, args.form)
    try:
        dec = decompose_additive(a, form, tol)
    except _NEGATIVE_ERRORS as exc:
        _emit(_negative_document("decompose", digest, exc))
        return EXIT_NEGATIVE
    write_matrix(f"{args.out}.N.mtx", dec.normal_factor)
    payload = {
        "sign": dec.sign.value,
        "form": form.tag.value,
        "factors": {"normal_factor": f"{args.out}.N.mtx"},
    }
    _emit(_document("decompose", digest, payload,
                    dec.residuals.to_dict()))
    return EXIT_OK


_GENERATE_KINDS = sorted(
    list(STRUCTURE_KINDS)
    + [f"{k}-diagonalizable" for k in STRUCTURE_KINDS]
    + ["counterexample", "automorphism"])


def cmd_generate(args) -> int:
    if args.kind == "counterexample":
        a = counterexample_unbalanced(args.n, args.seed)
    elif args.kind == "automorphism":
        form = _form_for(args.form, 2 * args.n)
        a = random_automorphism(form, args.n, args.seed)
    elif args.kind.endswith("-diagonalizable"):
        a = random_structured_diagonalizable(
            args.kind[:-len("-diagonalizable")], args.n, args.seed).matrix
    else:
        a = random_structured(args.kind, args.n, args.seed)
    write_matrix(args.out, a)
    print(_digest(args.out))
    return EXIT_OK


def _verify_diag(a: np.ndarray, s: np.ndarray,
                 form: InnerProduct) -> tuple[bool, dict]:
    res_auto, res_diag, _ = factor_residuals(a, s, form)
    ok = _within(FACTOR_GUARANTEE, res_auto, res_diag)
    return ok, {"automorphism": res_auto, "similarity_diagonal": res_diag}


def _verify_decomp(a: np.ndarray, n_mat: np.ndarray, form: InnerProduct,
                   tol: TolerancePolicy) -> tuple[bool, dict, str]:
    # A's record, stored so that the verification reads A* from it.
    record = _record(a, form)
    _store(record)
    if _check(record.selfadjoint, tol).ok:
        sign = Sign.PLUS
    elif _check(record.skewadjoint, tol).ok:
        sign = Sign.MINUS
    else:
        return False, {
            "selfadjoint": record.selfadjoint,
            "skewadjoint": record.skewadjoint,
        }, "unstructured"
    dec = AdditiveDecomposition(normal_factor=n_mat, sign=sign,
                                form_tag=form.tag)
    verdict = verify_decomposition(a, dec, form)
    return verdict.passed, verdict.to_dict(), sign.value


def cmd_verify(args) -> int:
    tol = _resolve_tol(args.tol)
    a, form, digest = _load(args.file_a, args.form)
    factor = read_matrix(args.file_factor)
    if factor.shape != a.shape:
        raise DimensionMismatch("matrix and factor dimensions differ")
    if args.mode == "diag":
        ok, residuals = _verify_diag(a, factor, form)
        payload = {"mode": "diag", "passed": ok}
    else:
        ok, residuals, sign = _verify_decomp(a, factor, form, tol)
        payload = {"mode": "decomp", "passed": ok, "sign": sign}
        residuals = {k: v for k, v in residuals.items()
                     if isinstance(v, float)}
    _emit(_document("verify", digest, payload, residuals))
    return EXIT_OK if ok else EXIT_NEGATIVE


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads "-1e-3", "-inf" and "-nan" as
    negative numbers, as it already reads "-1" and "-0.5", so that a
    negative --tol reaches the range check instead of being taken for an
    option. Subparsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="structdiag",
        description="Structured matrix analysis for symplectic and "
                    "perplectic inner products.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, forms=("symplectic", "perplectic")):
        p.add_argument("--form", choices=forms, default="symplectic")
        p.add_argument("--tol", type=float, default=None,
                       help="the structure tolerance, finite and >= 0 "
                            f"(default {DEFAULT_TOL.structure_tol:g}, "
                            "or STRUCTDIAG_TOL)")

    p = sub.add_parser("analyze", help="classification and balance report")
    add_common(p, ("symplectic", "perplectic", "euclidean"))
    p.add_argument("--expect", default=None, metavar="NAME",
                   choices=sorted(STRUCTURE_NAMES.union(
                       _DECISION_NAMES, {"diagonalizable"})),
                   help="exit 1 unless NAME (a structure name, "
                        "'structure-diagonalizable' or 'diagonalizable') "
                        "is satisfied; an unknown NAME exits 2")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers for multiple files, at most "
                        "one per file")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diagonalize",
                       help="write the automorphism and diagonal factors")
    add_common(p)
    p.add_argument("--unitary", action="store_true",
                   help="require a unitary automorphism (normal input)")
    p.add_argument("--out", required=True, help="output file prefix")
    p.add_argument("file")
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("decompose",
                       help="write the normal factor of A = N +/- N*")
    add_common(p)
    p.add_argument("--out", required=True, help="output file prefix")
    p.add_argument("file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("generate", help="write a seeded random instance")
    p.add_argument("--kind", required=True, choices=_GENERATE_KINDS)
    p.add_argument("--n", type=int, required=True,
                   help="half dimension (matrix is 2n x 2n)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--form", choices=("symplectic", "perplectic"),
                   default="symplectic",
                   help="form for --kind automorphism")
    p.add_argument("out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify",
                       help="re-check factors without refactorizing")
    add_common(p)
    p.add_argument("--mode", choices=("diag", "decomp"), required=True)
    p.add_argument("file_a")
    p.add_argument("file_factor")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*_IO_ERRORS, StructDiagError) as exc:
        code, label = _failure(exc)
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
