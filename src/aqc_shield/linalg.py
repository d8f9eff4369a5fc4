"""Dense complex-matrix kernel: norms, exponentials, logarithms, partial trace.

Everything here works on plain ``numpy.ndarray`` values.  The Hermitian
exponential is a truncated Taylor series of degree 3k evaluated with k + 1
matrix products, its degree chosen from ||A^2||_1 so that the truncation
error stays at unit roundoff in the operator norm.  The
unitary logarithm goes through the unitary's eigenvectors, taken from a
Hermitian Cayley transform with NumPy's eigensolvers, rather than a series
expansion, which is exact to roundoff and makes the principal branch
explicit.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-10

# Taylor degrees m = 0 (mod 3) and theta_m, the largest theta with
# sum_{j > m} theta^j / j! <= 2^-53.  The top entry is the degree that covers
# the most norm per matrix product once scaling and squaring are counted.
TAYLOR_THETA = (
    (3, 2.2719587097728253e-04),
    (6, 1.7764527083684662e-02),
    (9, 1.1483174747739708e-01),
    (12, 3.3521368782861477e-01),
    (15, 6.827580747189479e-01),
)
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(TAYLOR_THETA[-1][0] + 1))


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


def real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a``'s real part as a contiguous float64 array when its imaginary part
    is exactly zero, else ``a`` itself: the values are unchanged either way."""
    if np.iscomplexobj(a) and not a.imag.any():
        return np.ascontiguousarray(a.real)
    return a


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
    """exp(-i t h) for Hermitian h by a truncated Taylor series.

    With A = -i t h, A^2 is formed first and theta = sqrt(||A^2||_1), the
    square root of its largest column sum: an upper bound on ||A||_2, since
    ||A||_2^2 = ||A^2||_2 for anti-Hermitian A, and never above ||A||_1.
    The degree m is the first :data:`TAYLOR_THETA` entry with
    theta <= theta_m, so the omitted tail sum_{j > m} A^j / j! is at most
    2^-53 in the operator norm.  Above the top entry A is first scaled by
    2^-s and the result squared s times.  The polynomial is evaluated by
    Paterson & Stockmeyer's scheme (SIAM J. Comput. 2, 60 (1973)) in blocks
    of three terms, Horner in A^3, with c_m A^3 folded into the top block, so
    degree m = 3k takes k + 1 matrix products, plus s squarings.  The result
    is unitary to roundoff.  ``h`` is replaced by its Hermitian part once it
    passes the ``tol`` check.
    """
    require_hermitian(h, tol, "exponent")
    d = h.shape[0]
    a = (-0.5j * t) * (h + h.conj().T)
    a2 = a @ a
    theta = math.sqrt(float(np.abs(a2).sum(axis=0).max()))
    if not math.isfinite(theta):
        raise ValueError(f"exponent has non-finite norm {theta}")
    squarings = 0
    for m, theta_m in TAYLOR_THETA:
        if theta <= theta_m:
            break
    else:
        squarings = math.ceil(math.log2(theta / theta_m))
        a *= 2.0**-squarings
        a2 *= 4.0**-squarings
    c = _INV_FACTORIAL
    a3 = a2 @ a
    # p <- A^3 p + (c_k I + c_{k+1} A + c_{k+2} A^2) for k = m - 3, m - 6, ..., 0
    p = c[m] * a3
    for k in range(m - 3, -1, -3):
        if k < m - 3:
            p = a3 @ p
        p += c[k + 1] * a
        p += c[k + 2] * a2
        p.flat[:: d + 1] += c[k]
    for _ in range(squarings):
        p = p @ p
    return p


def logm_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian H on the principal branch with exp(-iH) = u.

    The eigenvectors come from the Hermitian Cayley transform
    C = i(I - w)(I + w)^-1 of w = e^{i(pi - m)} u, where m is the middle of
    the widest gap between u's eigenphases: C has eigenvalues tan(phi/2)
    for the eigenphases phi of w, which stay clear of pi and are strictly
    monotone in phi, so distinct eigenphases of u never mix.  With Q the
    eigenvectors of C, Q^dag u Q is diagonal for a (numerically) unitary
    input and H = Q diag(-angle) Q^dag is Hermitian by construction.
    ``u`` must be unitary within :data:`DEFAULT_TOL`.  Raises
    :class:`BranchCutError` when an eigenphase of u falls within 1e-10 of
    the +/- pi boundary, where the principal branch is ambiguous.
    """
    require_unitary(u, DEFAULT_TOL, "log argument")
    d = u.shape[0]
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    widest = int(np.argmax(gaps))
    w = u * np.exp(1j * (np.pi - phases[widest] - gaps[widest] / 2))
    eye = np.eye(d)
    cayley = np.linalg.solve(eye + w, 1j * (eye - w))
    _, q = np.linalg.eigh(0.5 * (cayley + cayley.conj().T))
    t_mat = q.conj().T @ u @ q
    diag = np.diag(t_mat)
    off = float(np.max(np.abs(t_mat - np.diag(diag)))) if d > 1 else 0.0
    if off > 100 * DEFAULT_TOL:
        raise ValueError(f"Q^dag u Q not diagonal (off-diagonal {off:.3e}); input not normal?")
    phases = np.angle(diag)
    if np.any(np.abs(np.abs(phases) - np.pi) < 1e-10):
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
