"""Lanczos iteration for the smallest non-trivial Laplacian eigenpair.

Power iteration converges slowly when ``lambda_2`` is close to ``lambda_3``;
the Lanczos process builds a Krylov basis whose Ritz pairs converge far
faster on the spectrum's edges.  This is the workhorse the paper's Spark
deployment would run as repeated distributed mat-vecs.

Implementation notes: full reorthogonalisation (the graphs here are small
enough that the O(n*k) cost is irrelevant and it removes the classic ghost
eigenvalue problem), plus explicit deflation of the constant vector, which
is the known 0-eigenvector of a connected Laplacian.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

MatVec = Callable[[np.ndarray], np.ndarray]


def lanczos_smallest_nontrivial(
    laplacian: np.ndarray,
    matvec: MatVec | None = None,
    max_steps: int | None = None,
    tol: float = 1e-10,
    seed: int = 7,
) -> tuple[float, np.ndarray]:
    """Return the Fiedler pair ``(lambda_2, v_2)`` via Lanczos.

    *matvec* overrides the dense product (hook for the distributed
    backend).  The Krylov space is built orthogonally to the constant
    vector, so the trivial 0-eigenpair never appears; the smallest Ritz
    pair is then exactly the Fiedler pair.  The start vector is drawn
    from *seed*.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    n = laplacian.shape[0]
    if n == 0:
        raise ValueError("empty Laplacian")
    if n == 1:
        return 0.0, np.zeros(1)

    base_matvec = matvec or (lambda x: laplacian @ x)
    ones = np.full(n, 1.0 / np.sqrt(n))
    steps = min(n - 1, max_steps if max_steps is not None else max(2 * int(np.sqrt(n)) + 20, 30))

    q = np.random.default_rng(seed).standard_normal(n)
    q -= (ones @ q) * ones
    norm = np.linalg.norm(q)
    if norm == 0:
        raise np.linalg.LinAlgError("start vector vanished under deflation")
    q /= norm

    basis = [q]
    alphas: list[float] = []
    betas: list[float] = []
    previous = np.zeros(n)
    beta = 0.0

    for step in range(steps):
        w = base_matvec(basis[-1])
        alpha = float(basis[-1] @ w)
        alphas.append(alpha)
        w = w - alpha * basis[-1] - beta * previous
        # Full reorthogonalisation against the constant vector and basis.
        w -= (ones @ w) * ones
        for b in basis:
            w -= (b @ w) * b
        beta = float(np.linalg.norm(w))
        if beta < tol:
            break
        betas.append(beta)
        previous = basis[-1]
        basis.append(w / beta)

    tridiagonal = np.diag(alphas)
    for i, b in enumerate(betas[: len(alphas) - 1]):
        tridiagonal[i, i + 1] = b
        tridiagonal[i + 1, i] = b

    ritz_values, ritz_vectors = np.linalg.eigh(tridiagonal)
    smallest = int(np.argmin(ritz_values))
    coefficients = ritz_vectors[:, smallest]
    vector = np.zeros(n)
    # basis can hold one more vector than coefficients when the beta
    # tolerance break fires after extending the basis; the extra vector
    # has no Ritz weight, so the shorter zip is the correct contraction.
    for coefficient, b in zip(coefficients, basis, strict=False):
        vector += coefficient * b
    norm = np.linalg.norm(vector)
    if norm > 0:
        vector /= norm
    return max(float(ritz_values[smallest]), 0.0), vector
