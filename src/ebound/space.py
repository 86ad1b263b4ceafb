"""Ambient-space elements, linear maps with adjoints, and dense kernels.

Elements of the ambient Euclidean space are plain numpy arrays: 1-d for the
vector variant, 2-d for the matrix variant.  The inner product is the sum of
entrywise products, so the induced norm is the Euclidean norm for vectors and
the Frobenius norm for matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleTargetError, InvalidInputError

GROUP_TOL = 1e-8
#: a dense map with at least this many entries multiplies only the columns
#: on its input's support when GATHER_RATIO·|supp x| ≤ n; below it, the
#: support scan and the gather cost more than the full product
GATHER_MIN_ENTRIES = 100_000
GATHER_RATIO = 16
#: relative residual ‖A(z) − ȳ‖ above which ȳ is reported outside the range of A
AFFINE_TOL = 1e-9


def inner(x, y) -> float:
    """Euclidean / Frobenius inner product ⟨x, y⟩."""
    return float(np.sum(np.asarray(x) * np.asarray(y)))


def norm(x) -> float:
    """Euclidean norm for vectors, Frobenius norm for matrices."""
    return float(np.linalg.norm(np.asarray(x)))


def _require_finite(x, what="input"):
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{what} has non-finite entries")


def _shaped(v, shape, what):
    """v as a float array, which must have the given shape."""
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise InvalidInputError(f"{what} takes shape {shape}, got {v.shape}")
    return v


def _sized(v, size, what):
    """v as a flat float array, which must have `size` entries."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != size:
        raise InvalidInputError(f"{what} takes {size} entries, got {v.size}")
    return v


class LinearMap:
    """A linear operator between element spaces, with an adjoint."""

    in_shape: tuple
    out_shape: tuple

    def __call__(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError

    def operator_norm(self) -> float:
        """Spectral norm ‖A‖₂."""
        raise NotImplementedError

    @property
    def is_identity(self) -> bool:
        return False


@dataclass(frozen=True)
class IdentityMap(LinearMap):
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))

    @property
    def in_shape(self):
        return self.shape

    @property
    def out_shape(self):
        return self.shape

    def __call__(self, x):
        return _shaped(x, self.shape, "identity map")

    def adjoint(self, y):
        return _shaped(y, self.shape, "identity map adjoint")

    def operator_norm(self):
        return 1.0

    @property
    def is_identity(self):
        return True


@dataclass(frozen=True)
class DenseMap(LinearMap):
    """Matrix acting on the vectorized input; output is a vector.

    Inputs are taken by size: any array with as many entries as the matrix
    has columns (rows for the adjoint).  On a matrix of at least
    GATHER_MIN_ENTRIES entries, the forward product of an input with
    GATHER_RATIO·|supp x| ≤ n reads only the columns on its support,
    matrix[:, s] @ x[s]: the same product up to rounding.  NaN and ±inf are
    nonzero, so they stay in s and propagate as in the full product.
    """

    matrix: np.ndarray
    in_shape: tuple

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        _require_finite(m, "dense map matrix")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "in_shape", tuple(self.in_shape))
        if m.shape[1] != int(np.prod(self.in_shape)):
            raise InvalidInputError(
                f"dense map has {m.shape[1]} columns but input shape "
                f"{self.in_shape} vectorizes to {int(np.prod(self.in_shape))}"
            )

    @property
    def out_shape(self):
        return (self.matrix.shape[0],)

    def __call__(self, x):
        x = _sized(x, self.matrix.shape[1], "dense map")
        if (self.matrix.size >= GATHER_MIN_ENTRIES
                and GATHER_RATIO * np.count_nonzero(x) <= x.size):
            s = np.flatnonzero(x)
            return self.matrix[:, s] @ x[s]
        return self.matrix @ x

    def adjoint(self, y):
        y = _sized(y, self.matrix.shape[0], "dense map adjoint")
        return (self.matrix.T @ y).reshape(self.in_shape)

    def operator_norm(self):
        return float(np.linalg.norm(self.matrix, 2))


@dataclass(frozen=True)
class CoordinateSelectMap(LinearMap):
    """Selects a list of entries of the input element, in order.

    Indices are (i, j) pairs for matrix inputs or bare ints for vectors.
    Covers operators such as X ↦ (X₁₁, X₂₂).
    """

    indices: tuple
    in_shape: tuple

    def __post_init__(self):
        idx = tuple(tuple(np.atleast_1d(i)) if np.ndim(i) else (int(i),) for i in self.indices)
        idx = tuple(tuple(int(k) for k in i) for i in idx)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "in_shape", tuple(self.in_shape))
        ndim = len(self.in_shape)
        for i in idx:
            if len(i) != ndim:
                raise InvalidInputError(f"index {i} does not match input shape {self.in_shape}")
            if not all(0 <= k < size for k, size in zip(i, self.in_shape)):
                raise InvalidInputError(f"index {i} is out of range for shape {self.in_shape}")
        if len(set(idx)) != len(idx):
            raise InvalidInputError("coordinate-select indices must be distinct")

    @property
    def out_shape(self):
        return (len(self.indices),)

    @cached_property
    def _flat(self) -> np.ndarray:
        """Row-major positions of the selected entries."""
        coords = np.array(self.indices, dtype=int).reshape(-1, len(self.in_shape))
        return np.ravel_multi_index(tuple(coords.T), self.in_shape)

    def __call__(self, x):
        return np.take(_shaped(x, self.in_shape, "coordinate-select map"), self._flat)

    def adjoint(self, y):
        out = np.zeros(self.in_shape)
        out.reshape(-1)[self._flat] = _shaped(y, self.out_shape, "coordinate-select adjoint")
        return out

    def operator_norm(self):
        return 1.0


def line_fit(x, y) -> tuple:
    """Least-squares line y ≈ slope·x + intercept through 1-d arrays; returns
    (slope, intercept, R²), with R² = 1 when y is constant."""
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def numerical_rank(sigma) -> int:
    """Number of singular values above GROUP_TOL · max(1, σ₁), for sigma
    sorted non-increasing."""
    scale = max(1.0, float(sigma[0])) if sigma.size else 1.0
    return int(np.sum(sigma > GROUP_TOL * scale))


def svd(X, full_matrices: bool = True) -> tuple:
    """Full (or thin) singular value decomposition (U, σ, Vᵀ), exactly as
    np.linalg.svd returns it, with σ sorted non-increasing; numpy would
    return NaN singular values for a non-finite input, so that raises.

    The signs of the singular vectors are LAPACK's.  Every consumer is
    invariant under flipping a column of U together with the paired row
    of Vᵀ: the Γ_P(ḡ) projection (D·psd(M)·D = psd(DMD)), the nuclear-norm
    subdifferential distance (squared entries), the complementarity margin
    (eigenvalues of DBD) and the nuclear-norm prox U diag(σ') Vᵀ.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _require_finite(X, "svd input")
    return np.linalg.svd(X, full_matrices=full_matrices)


def psd_project(M):
    """Nearest (Frobenius) positive semidefinite matrix.

    Symmetrizes, eigendecomposes, clips negative eigenvalues.  The squared
    distance to the input decomposes as ‖skew part‖² + Σ min(λᵢ, 0)².
    """
    M = np.asarray(M, dtype=float)
    _require_finite(M, "psd_project input")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("psd_project requires a square matrix")
    H = (M + M.T) / 2.0
    w, Q = np.linalg.eigh(H)
    S = Q @ np.diag(np.maximum(w, 0.0)) @ Q.T
    return (S + S.T) / 2.0


def affine_project(x, A: LinearMap, y_bar):
    """Exact projection of x onto {z : A(z) = ȳ}.

    Raises InfeasibleTargetError when ȳ is not in the range of A.
    """
    x = np.asarray(x, dtype=float)
    y_bar = np.asarray(y_bar, dtype=float)
    if A.is_identity:
        return y_bar.reshape(x.shape)
    if isinstance(A, CoordinateSelectMap):
        out = x.copy()
        out.reshape(-1)[A._flat] = y_bar
        return out
    # dense: z = x − A⁺(A(x) − ȳ) via the SVD pseudoinverse
    residual = A(x) - y_bar
    z = (x.reshape(-1) - np.linalg.pinv(A.matrix, rcond=1e-12) @ residual).reshape(x.shape)
    if norm(A(z) - y_bar) > AFFINE_TOL * max(1.0, norm(y_bar)):
        raise InfeasibleTargetError(
            "target is not in the range of the linear map "
            f"(projection residual {norm(A(z) - y_bar):.3e})"
        )
    return z
