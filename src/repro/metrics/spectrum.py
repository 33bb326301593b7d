"""Spectral metrics of the normalized Laplacian.

The paper uses the normalized Laplacian ``L`` with matrix elements
``L_ij = -1/sqrt(k_i k_j)`` for edges, 1 on the diagonal (isolated nodes
excluded) -- i.e. ``L = I - D^{-1/2} A D^{-1/2}``.  All eigenvalues lie in
``[0, 2]``; the smallest non-zero eigenvalue ``λ_1`` and the largest
eigenvalue ``λ_{n-1}`` bound network resilience and performance.  ``A``
is :func:`~repro.kernels.biggraph.adjacency_matrix` over the graph's CSR
view, so every function here takes a SimpleGraph or a BigGraph.

Up to :data:`DENSE_LIMIT` nodes :func:`extreme_eigenvalues` reads both
values off the full dense spectrum.  Above it, ``λ_1`` comes from one
deflated shift-invert Lanczos solve: ``L - σI`` (``σ`` slightly negative,
so the matrix is positive definite) is factored once under a fill-reducing
minimum-degree ordering, and every Lanczos step is projected off the known
null space of ``L`` -- one vector ``D^{1/2}·1_C`` per connected component
``C`` (``e_i`` for an isolated node) -- so zero eigenvalues are never
returned, however many components the graph has.  ``λ_{n-1}`` comes from a
plain Lanczos run.  Both use a fixed start vector, so repeated calls are
bit-identical; the sparse values are floats that agree with the dense path
to about 1e-9 relative (``λ_1``) and 1e-8 absolute (``λ_{n-1}``), not bit
for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.kernels.biggraph import adjacency_matrix, component_labels

# graphs up to this size use a dense eigen-decomposition (exact, simple);
# larger graphs compute the two extreme eigenvalues with sparse Lanczos runs.
DENSE_LIMIT = 2500

# shift of the factored matrix ``L - SHIFT·I``: negative, so the matrix is
# positive definite even though ``L`` itself is singular
SHIFT = -1e-3


def normalized_laplacian(graph) -> sp.csr_matrix:
    """Sparse normalized Laplacian ``I - D^{-1/2} A D^{-1/2}``.

    Isolated nodes contribute a zero row/column (their "1" diagonal entry is
    a convention that only shifts zero eigenvalues; we keep them at 0 so that
    the number of zero eigenvalues equals the number of connected
    components plus isolated nodes, as usual).
    """
    return _laplacian_of(adjacency_matrix(graph))[0]


def _laplacian_of(adjacency: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """The normalized Laplacian of ``adjacency`` and the node degrees."""
    degrees = np.asarray(adjacency.sum(axis=1)).flatten()
    with np.errstate(divide="ignore"):
        inv_sqrt = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
    d_inv_sqrt = sp.diags(inv_sqrt)
    identity_like = sp.diags((degrees > 0).astype(float))
    return (identity_like - d_inv_sqrt @ adjacency @ d_inv_sqrt).tocsr(), degrees


def laplacian_spectrum(graph) -> np.ndarray:
    """All eigenvalues of the normalized Laplacian (dense computation)."""
    laplacian = normalized_laplacian(graph).toarray()
    return np.sort(np.linalg.eigvalsh(laplacian))


def extreme_eigenvalues(graph, *, tolerance: float = 1e-8) -> tuple[float, float]:
    """``(λ_1, λ_{n-1})``: smallest non-zero and largest eigenvalues.

    Up to :data:`DENSE_LIMIT` nodes the full dense spectrum is computed and
    eigenvalues at or below ``tolerance`` count as zero.  Above it, ``λ_1``
    comes from a shift-invert Lanczos solve deflated by the null space of
    ``L`` (see the module docstring) and ``λ_{n-1}`` from a Lanczos run on
    ``L``; both start from a fixed vector, so the result is deterministic.
    The sparse values match the dense ones to about 1e-9 relative
    (``λ_1``) and 1e-8 absolute (``λ_{n-1}``), not bit for bit.  A graph
    without a non-zero eigenvalue (no edges) gives ``(0.0, 0.0)``.
    """
    n = graph.number_of_nodes
    if n == 0:
        return (0.0, 0.0)
    if n <= DENSE_LIMIT:
        eigenvalues = laplacian_spectrum(graph)
        non_zero = eigenvalues[eigenvalues > tolerance]
        smallest = float(non_zero[0]) if len(non_zero) else 0.0
        largest = float(eigenvalues[-1])
        return smallest, largest
    adjacency = adjacency_matrix(graph)
    laplacian, degrees = _laplacian_of(adjacency)
    null_space = _null_space(adjacency, degrees)
    if null_space.shape[1] == n:
        return (0.0, 0.0)
    start = np.random.default_rng(0).standard_normal(n)
    largest = float(
        spla.eigsh(
            laplacian, k=1, which="LA", v0=start, return_eigenvectors=False, tol=1e-6
        )[0]
    )

    def project(x: np.ndarray) -> np.ndarray:
        return x - null_space @ (null_space.T @ x)

    factor = spla.splu(
        (laplacian - SHIFT * sp.identity(n, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
    )
    deflated_inverse = spla.LinearOperator(
        (n, n), matvec=lambda x: project(factor.solve(project(x))), dtype=float
    )
    smallest = float(
        spla.eigsh(
            laplacian,
            k=1,
            sigma=SHIFT,
            which="LM",
            OPinv=deflated_inverse,
            v0=project(start),
            return_eigenvectors=False,
            tol=1e-6,
        )[0]
    )
    return smallest, largest


def _null_space(adjacency: sp.csr_matrix, degrees: np.ndarray) -> sp.csr_matrix:
    """Orthonormal basis of the null space of the normalized Laplacian.

    An ``n × c`` matrix with one column per connected component ``C``:
    ``D^{1/2}·1_C`` normalised, which is ``e_i`` for an isolated node ``i``.
    """
    n = len(degrees)
    count, labels = component_labels(adjacency)
    weights = np.where(degrees > 0, degrees, 1.0)
    norms = np.sqrt(np.bincount(labels, weights=weights, minlength=count))
    values = np.sqrt(weights) / norms[labels]
    return sp.csr_matrix((values, (np.arange(n), labels)), shape=(n, count))


__all__ = [
    "normalized_laplacian",
    "laplacian_spectrum",
    "extreme_eigenvalues",
    "DENSE_LIMIT",
]
