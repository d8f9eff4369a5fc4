"""Dense complex-matrix kernel: norms, exponentials, logarithms, partial trace.

Everything here works on plain ``numpy.ndarray`` values.  Matrix functions
go through Hermitian/unitary eigenstructure rather than series expansions:
at dimensions up to 2^12 this is exact to roundoff and makes the principal
branch explicit.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

DEFAULT_TOL = 1e-10


class BranchCutError(ArithmeticError):
    """A unitary has an eigenphase at the +/- pi branch boundary."""


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def op_norm(a: np.ndarray) -> float:
    """Operator norm: the largest singular value."""
    return float(np.linalg.norm(a, 2))


def trace_norm(a: np.ndarray) -> float:
    """Trace norm ||A||_1 = Tr|A|: the sum of singular values."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def require_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL, what: str = "operator") -> None:
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > tol:
        raise ValueError(f"{what} is not Hermitian within {tol:g} (deviation {dev:.3e})")


def require_unitary(u: np.ndarray, tol: float = DEFAULT_TOL, what: str = "operator") -> None:
    d = u.shape[0]
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    if dev > tol:
        raise ValueError(f"{what} is not unitary within {tol:g} (deviation {dev:.3e})")


def expm_hermitian(h: np.ndarray, t: float = 1.0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """exp(-i t h) for Hermitian h, via eigendecomposition.  Unitary by construction."""
    require_hermitian(h, tol, "exponent")
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T


def logm_unitary(u: np.ndarray, tol: float = DEFAULT_TOL, branch_tol: float = 1e-10) -> np.ndarray:
    """Hermitian H on the principal branch with exp(-iH) = u.

    Uses a complex Schur decomposition; for a (numerically) unitary input
    the Schur factor is diagonal, so H = Q diag(-angle) Q^dag is Hermitian
    by construction.  Raises :class:`BranchCutError` when an eigenphase
    falls within ``branch_tol`` of the +/- pi boundary, where the principal
    branch is ambiguous.
    """
    require_unitary(u, tol, "log argument")
    t_mat, q = scipy.linalg.schur(u, output="complex")
    diag = np.diag(t_mat)
    off = float(np.max(np.abs(t_mat - np.diag(diag)))) if t_mat.shape[0] > 1 else 0.0
    if off > 100 * tol:
        raise ValueError(f"Schur factor not diagonal (off-diagonal {off:.3e}); input not normal?")
    phases = np.angle(diag)
    if np.any(np.abs(np.abs(phases) - np.pi) < branch_tol):
        raise BranchCutError("eigenphase at the +/- pi boundary; principal branch is ambiguous")
    h = (q * (-phases)) @ q.conj().T
    return 0.5 * (h + h.conj().T)


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    Args:
        rho: density matrix (or any operator) on the full product space.
        dims: dimension of each tensor factor, in kron order.
        keep: indices (into ``dims``) of the factors to retain.

    Returns:
        The reduced operator on the kept factors, in their original order.
    """
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(f"operator shape {rho.shape} does not match dims {dims}")
    keep = tuple(sorted(set(int(i) for i in keep)))
    if any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")
    m = len(dims)
    resh = rho.reshape(dims + dims)
    row_sub = list(range(m))
    col_sub = [i + m if i in keep else i for i in range(m)]
    out_sub = [i for i in keep] + [i + m for i in keep]
    reduced = np.einsum(resh, row_sub + col_sub, out_sub)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reduced.reshape(d_keep, d_keep)
