"""From-scratch eigensolvers for the graph Laplacian.

These implement the linear algebra the paper runs on Spark: repeated
matrix-vector products.  The production path (``FiedlerSolver``) defaults
to numpy/scipy for speed, but these reference solvers (a) document the
mathematics, (b) are what the mini-Spark substrate parallelises for the
Fig. 9 comparison, and (c) are cross-validated against numpy in tests.

The Fiedler pair is extracted with the classic spectral-shift trick: for a
Laplacian ``L`` with Gershgorin bound ``c >= lambda_max``, the matrix
``M = c I - L`` has eigenvalues ``c - lambda_i`` with the same
eigenvectors, so the *second largest* of ``M`` — reachable by power
iteration with the constant vector deflated — is exactly the Fiedler pair.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

MatVec = Callable[[np.ndarray], np.ndarray]


def power_iteration(
    matvec: MatVec,
    n: int,
    deflate: list[np.ndarray] | None = None,
    tol: float = 1e-10,
    max_iter: int = 5000,
    seed: int = 7,
) -> tuple[float, np.ndarray]:
    """Power iteration on an implicit symmetric PSD matrix.

    *matvec* computes ``M @ x``; *deflate* is an orthonormal list of
    eigenvectors to project out each step (deflation), so the iteration
    converges to the dominant eigenpair of the orthogonal complement.
    The start vector is drawn from *seed*.

    Returns ``(eigenvalue, unit eigenvector)``.  Convergence is declared
    when the iterate moves by less than *tol* in the 2-norm.
    """
    if n <= 0:
        raise ValueError(f"dimension must be > 0, got {n}")
    deflate = deflate or []
    rng = np.random.default_rng(seed)
    x = _project_out(rng.standard_normal(n), deflate)
    norm = np.linalg.norm(x)
    if norm == 0:
        raise np.linalg.LinAlgError("start vector vanished under deflation")
    x /= norm

    eigenvalue = 0.0
    for _ in range(max_iter):
        y = matvec(x)
        y = _project_out(y, deflate)
        norm = np.linalg.norm(y)
        if norm < 1e-300:
            # M annihilates the complement: the dominant eigenvalue there is 0.
            return 0.0, x
        y /= norm
        eigenvalue = float(y @ matvec(y))
        if np.linalg.norm(y - np.sign(y @ x + 1e-300) * x) < tol:
            return eigenvalue, y
        x = y
    return eigenvalue, x


def dominant_eigenpair(
    matrix: np.ndarray, tol: float = 1e-10, max_iter: int = 5000, seed: int = 7
) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a dense symmetric PSD matrix via power iteration."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    return power_iteration(
        lambda x: matrix @ x, matrix.shape[0], tol=tol, max_iter=max_iter, seed=seed
    )


def gershgorin_bound(laplacian: np.ndarray) -> float:
    """Upper bound on the largest Laplacian eigenvalue (row-sum bound).

    For ``L = D - A`` every Gershgorin disc is centred at ``d_i`` with
    radius ``d_i``, so ``lambda_max <= 2 max_i d_i``.
    """
    diagonal = np.diag(laplacian)
    return float(2.0 * diagonal.max()) if diagonal.size else 0.0


def smallest_nontrivial_laplacian_eigenpair(
    laplacian: np.ndarray,
    matvec: MatVec | None = None,
    tol: float = 1e-10,
    max_iter: int = 20000,
    seed: int = 7,
) -> tuple[float, np.ndarray]:
    """The Fiedler pair ``(lambda_2, v_2)`` via deflated power iteration.

    *matvec*, when given, overrides the dense product ``laplacian @ x``
    (this is the hook the distributed backend uses).  The constant vector
    (the known 0-eigenvector of a connected graph's Laplacian) is deflated;
    power iteration then finds the dominant pair of ``c I - L`` restricted
    to the complement, which maps back to ``lambda_2 = c - mu``.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    n = laplacian.shape[0]
    if n == 0:
        raise ValueError("empty Laplacian")
    if n == 1:
        return 0.0, np.zeros(1)

    shift = gershgorin_bound(laplacian)
    if shift == 0.0:
        # Edgeless graph: every vector is a 0-eigenvector; return a fixed
        # representative orthogonal to the constant vector.
        vector = np.zeros(n)
        vector[0] = 1.0
        vector -= vector.mean()
        return 0.0, vector / np.linalg.norm(vector)

    base_matvec = matvec or (lambda x: laplacian @ x)
    ones = np.full(n, 1.0 / np.sqrt(n))

    def shifted(x: np.ndarray) -> np.ndarray:
        return shift * x - base_matvec(x)

    mu, vector = power_iteration(
        shifted, n, deflate=[ones], tol=tol, max_iter=max_iter, seed=seed
    )
    lambda2 = shift - mu
    # Numerical floor: eigenvalues of a PSD matrix cannot be negative.
    return max(lambda2, 0.0), vector


def _project_out(x: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    """Project *x* onto the orthogonal complement of *basis* vectors."""
    for b in basis:
        x = x - (b @ x) * b
    return x
