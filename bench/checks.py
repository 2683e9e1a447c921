"""Certificates the benchmark recomputes itself, with plain numpy.

Thresholds are the package's pinned guarantees: 1e-8 for automorphism,
similarity, unitarity and decomposition residuals, 1e-9 for Lagrangian
frames, 1e-8 relative for spectra. Each check returns a list of failure
descriptions; an empty list means the output is certified.
"""

from __future__ import annotations

import numpy as np

GUARANTEE = 1e-8
FRAME = 1e-9
SPECTRUM_RTOL = 1e-8


def full_diagonal(core, tag: str, selfadjoint: bool) -> np.ndarray:
    """The canonical structured diagonal of a core, from the paper's pattern."""
    core = np.asarray(core, dtype=complex)
    mirror = (1.0 if selfadjoint else -1.0) * np.conj(core)
    if tag == "perplectic":
        mirror = mirror[::-1]
    return np.concatenate([core, mirror])


def rel(x, target) -> float:
    return float(np.linalg.norm(x - target) / max(1.0, np.linalg.norm(target)))


def _adjoint(m, b):
    return np.linalg.solve(b, m.conj().T @ b)


def spectrum_matches(found, planted, match) -> list[str]:
    if not match(np.asarray(found), np.asarray(planted), SPECTRUM_RTOL):
        return ["spectrum misses the planted one"]
    return []


def diagonalization(a, b, s, diagonal, unitary: bool) -> list[str]:
    """S is an automorphism of B with S^-1 A S = diag(diagonal)."""
    fails = []
    res_auto = rel(s.conj().T @ b @ s, b)
    res_sim = rel(np.linalg.solve(s, a @ s), np.diag(diagonal))
    if res_auto > GUARANTEE:
        fails.append(f"automorphism residual {res_auto:.2e}")
    if res_sim > GUARANTEE:
        fails.append(f"similarity residual {res_sim:.2e}")
    if unitary:
        res_unit = rel(s.conj().T @ s, np.eye(s.shape[0]))
        if res_unit > GUARANTEE:
            fails.append(f"unitarity residual {res_unit:.2e}")
    return fails


def decomposition(a, b, n_mat, plus: bool) -> list[str]:
    """A = N +/- N*, N normal, N N* = N* N = 0."""
    n_star = _adjoint(n_mat, b)
    scale = max(1.0, np.linalg.norm(n_mat) * np.linalg.norm(n_star))
    res = {
        "normality": rel(n_mat.conj().T @ n_mat, n_mat @ n_mat.conj().T),
        "annihilation_left": float(np.linalg.norm(n_mat @ n_star) / scale),
        "annihilation_right": float(np.linalg.norm(n_star @ n_mat) / scale),
        "reconstruction": rel(n_mat + (1.0 if plus else -1.0) * n_star, a),
    }
    return [f"{k} residual {v:.2e}" for k, v in res.items() if v > GUARANTEE]


def lagrangian_frame(v, b) -> list[str]:
    """Orthonormal columns spanning a neutral subspace."""
    k = v.shape[1]
    res_orth = float(np.linalg.norm(v.conj().T @ v - np.eye(k)))
    res_neut = float(np.linalg.norm(v.conj().T @ b @ v))
    fails = []
    if res_orth > FRAME:
        fails.append(f"frame orthonormality residual {res_orth:.2e}")
    if res_neut > FRAME:
        fails.append(f"frame neutrality residual {res_neut:.2e}")
    return fails

