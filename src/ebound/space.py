"""Ambient-space elements, linear maps with adjoints, and dense kernels.

Elements of the ambient Euclidean space are plain numpy arrays: 1-d for the
vector variant, 2-d for the matrix variant.  The inner product is the sum of
entrywise products, so the induced norm is the Euclidean norm for vectors and
the Frobenius norm for matrices.
"""

from __future__ import annotations

import math
import numbers
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
#: the most bytes of one row panel of a dense map (DenseMap.row_panels):
#: half of a 2 MiB L2 cache, so a panel stays cached between the forward
#: and the adjoint product of a stacked evaluation that reads it for both
PANEL_BYTES = 2**20
#: a dense map whose largest entry has binary exponent e (np.frexp) with
#: |e| ≤ this forms its Gram matrix unscaled: its entries stay below
#: 2^(2·this) times the inner dimension, and λ_max ≥ 2^(−2·this − 2) is far
#: above the underflow level
GRAM_SAFE_EXPONENT = 256
#: relative residual ‖A(z) − ȳ‖ above which ȳ is reported outside the range of A
AFFINE_TOL = 1e-9
#: the most entries a custom problem's shape, a probe's layout or a ray may
#: have, so a request whose arrays would not fit in memory is refused before
#: any is allocated
MAX_ENTRIES = 10**7


def inner(x, y) -> float:
    """Euclidean / Frobenius inner product ⟨x, y⟩ of two elements of one
    shape: the pairwise sum of their entrywise products, as np.sum forms it."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise InvalidInputError(f"inner product of shapes {x.shape} and {y.shape}")
    return float((x * y).sum())


def norm(x) -> float:
    """Euclidean norm for vectors, Frobenius norm for matrices: √(v·v) for v
    the entries in memory order, which is what np.linalg.norm computes."""
    v = np.asarray(x, dtype=float).ravel(order="K")
    return math.sqrt(v.dot(v))


def norms(xs, ndim=1) -> np.ndarray:
    """`norm` of every element of xs, whose elements have `ndim` axes and
    whose leading axes index them: an array of the leading shape, 0-d for
    a single element.  Each is √(v·v), its v·v from one stacked matmul,
    which forms each element's product as `norm`'s v.dot(v) does, bit for
    bit (np.einsum does not, and would move nearly every report of the
    registry); xs is read in C order, as arithmetic results are laid out."""
    xs = np.asarray(xs, dtype=float)
    if ndim != 1:
        xs = xs.reshape(xs.shape[:xs.ndim - ndim] + (math.prod(xs.shape[xs.ndim - ndim:]),))
    return np.sqrt(np.matmul(xs[..., None, :], xs[..., None])[..., 0, 0])


def _require_finite(x, what="input"):
    if not np.isfinite(x).all():
        raise InvalidInputError(f"{what} has non-finite entries")


def _require_positive(v, what, zero=False):
    """v, which must be a finite number > 0, or >= 0 with zero=True: one
    chained comparison, which NaN fails.  A bool (numpy's too) is not a
    number, nor is any array but a 0-d one; None or a str raises Python's
    TypeError."""
    if not isinstance(v, (bool, np.bool_)) and np.ndim(v) == 0 \
            and (0 < v < math.inf or zero and v == 0):
        return v
    raise InvalidInputError(f"{what} must be finite and {'>=' if zero else '>'} 0, got {v!r}")


def _require_integer(v, what, low):
    """v as an int, which must be an integer (a numpy one too, but not a
    bool) >= low."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise InvalidInputError(f"{what} must be an integer, got {v!r}")
    if v < low:
        raise InvalidInputError(f"{what} must be >= {low}, got {v!r}")
    return int(v)


def _shape(v, what):
    """v as a tuple of integers >= 0 (numpy ones too), the shape of an element."""
    return tuple(_require_integer(k, what, 0) for k in v)


def _shaped(v, shape, what):
    """v as a float array, which must have the given shape."""
    v = np.asarray(v, dtype=float)
    if v.shape != shape:
        raise InvalidInputError(f"{what} takes shape {shape}, got {v.shape}")
    return v


def _stacked(v, shape, what):
    """v as a float array of points of the given shape along a leading axis."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0 or v.shape[1:] != shape:
        raise InvalidInputError(f"{what} takes shape {shape}, got {v.shape[1:]}")
    return v


class LinearMap:
    """A linear operator between element spaces, with an adjoint."""

    in_shape: tuple
    out_shape: tuple

    def __call__(self, x):
        raise NotImplementedError

    def adjoint(self, y):
        raise NotImplementedError

    def apply_each(self, X) -> np.ndarray:
        """A(x) for each x of the stack X (a leading axis), as one array."""
        return np.array([self(x) for x in X]).reshape((len(X), *self.out_shape))

    def adjoint_each(self, Y) -> np.ndarray:
        """A*(y) for each y of the stack Y, as apply_each forms A(x)."""
        return np.array([self.adjoint(y) for y in Y]).reshape((len(Y), *self.in_shape))

    def support(self, x):
        """The flat indices of x's nonzero entries when A(x) is formed from
        the columns on them alone, else None: the one scan of x that a
        caller keeps and hands to `apply_on`, so the input is scanned once."""
        return None

    def apply_on(self, x, s) -> np.ndarray:
        """A(x), given s = self.support(x): from the columns on s alone when
        s is not None, from the whole map otherwise."""
        return self(x)

    @property
    def row_panels(self) -> tuple:
        """(rows, panel) pairs, a slice of A's outputs and the map onto them,
        covering each row once, in order: here the map is its own one panel."""
        return ((slice(None), self),)

    def operator_norm(self) -> float:
        """Spectral norm ‖A‖₂, the largest singular value; a dense map reads
        it off its smaller Gram matrix, with no SVD."""
        raise NotImplementedError

    @property
    def is_identity(self) -> bool:
        return False


@dataclass(frozen=True)
class IdentityMap(LinearMap):
    shape: tuple

    def __post_init__(self):
        object.__setattr__(self, "shape", _shape(self.shape, "identity map shape"))

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

    Inputs must have in_shape (out_shape for the adjoint), as for every
    linear map; the matrix acts on their row-major vectorization.  On a
    matrix of at least GATHER_MIN_ENTRIES entries, an input with
    GATHER_RATIO·|supp x| ≤ n gathers (`support` returns its support s,
    from one `flatnonzero` scan): the forward product reads only the columns
    on s, matrix[:, s] @ x[s], the same product up to rounding.  NaN and
    ±inf are nonzero, so they stay in s and propagate as in the full
    product.  `apply_each` and `adjoint_each` take a stack of points in one
    matrix–matrix product, X Mᵀ or Y M: the per-point products up to
    rounding.  `row_panels` splits the rows into ⌈bytes / PANEL_BYTES⌉ runs
    of nearly equal length (at most one per row), each with its panel, a
    DenseMap over a view of the matrix, so that CompositeSmooth.at_each
    forms X Pᵀ and a product with P while P is cached; a matrix that fits
    is its own single panel.  `operator_norm` is √λ_max of the smaller Gram
    matrix, M Mᵀ or MᵀM, with no SVD: about p²q + (4/3)p³ flops for an m×n
    matrix with p = min(m, n) and q = max(m, n), where an SVD of M costs
    about 4p²q.  A matrix whose largest entry lies outside
    2^±GRAM_SAFE_EXPONENT is first scaled exactly by the power of two that
    brings that entry into [1/2, 1), so the Gram matrix can neither
    overflow nor underflow to zero; rounding moves λ_max by O(ε·‖M‖₂²)
    (Weyl), so ‖M‖₂ keeps relative accuracy O(ε).
    """

    matrix: np.ndarray
    in_shape: tuple

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.ndim != 2:
            raise InvalidInputError(f"a dense map takes a matrix, got an array of shape {m.shape}")
        _require_finite(m, "dense map matrix")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "in_shape", _shape(self.in_shape, "dense map input shape"))
        if m.shape[1] != int(np.prod(self.in_shape)):
            raise InvalidInputError(
                f"dense map has {m.shape[1]} columns but input shape "
                f"{self.in_shape} vectorizes to {int(np.prod(self.in_shape))}"
            )

    @property
    def out_shape(self):
        return (self.matrix.shape[0],)

    def support(self, x):
        if self.matrix.size < GATHER_MIN_ENTRIES:
            return None
        s = np.flatnonzero(_shaped(x, self.in_shape, "dense map"))
        return s if GATHER_RATIO * s.size <= self.matrix.shape[1] else None

    def apply_on(self, x, s):
        x = _shaped(x, self.in_shape, "dense map").reshape(-1)
        return self.matrix @ x if s is None else self.matrix[:, s] @ x[s]

    def __call__(self, x):
        return self.apply_on(x, self.support(x))

    def adjoint(self, y):
        y = _shaped(y, self.out_shape, "dense map adjoint")
        return (self.matrix.T @ y).reshape(self.in_shape)

    def apply_each(self, X):
        X = _stacked(X, self.in_shape, "dense map")
        return X.reshape(len(X), self.matrix.shape[1]) @ self.matrix.T

    def adjoint_each(self, Y):
        Y = _stacked(Y, self.out_shape, "dense map adjoint")
        return (Y @ self.matrix).reshape((len(Y), *self.in_shape))

    @cached_property
    def row_panels(self):
        m = self.matrix.shape[0]
        count = min(m, -(-self.matrix.nbytes // PANEL_BYTES))
        if count < 2:
            return super().row_panels
        edges = [m * i // count for i in range(count + 1)]
        return tuple((slice(a, b), DenseMap(self.matrix[a:b], self.in_shape))
                     for a, b in zip(edges, edges[1:]))

    def operator_norm(self):
        M = self.matrix
        top = max(float(np.max(M, initial=0.0)), -float(np.min(M, initial=0.0)))
        if top == 0.0:
            return 0.0
        e = int(np.frexp(top)[1])
        if abs(e) <= GRAM_SAFE_EXPONENT:
            e = 0
        S = np.ldexp(M, -e) if e else M
        G = S @ S.T if S.shape[0] <= S.shape[1] else S.T @ S
        top_eigenvalue = max(float(np.linalg.eigvalsh(G)[-1]), 0.0)
        return float(np.ldexp(np.sqrt(top_eigenvalue), e))


@dataclass(frozen=True)
class CoordinateSelectMap(LinearMap):
    """Selects a list of entries of the input element, in order.

    Indices are (i, j) pairs for matrix inputs or bare ints for vectors;
    each entry must be an integer (a numpy one too), else InvalidInputError.
    Covers operators such as X ↦ (X₁₁, X₂₂).
    """

    indices: tuple
    in_shape: tuple

    def __post_init__(self):
        idx = tuple(tuple(_require_integer(k, "coordinate-select index", 0)
                          for k in (i if np.ndim(i) else (i,))) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "in_shape",
                           _shape(self.in_shape, "coordinate-select input shape"))
        ndim = len(self.in_shape)
        for i in idx:
            if len(i) != ndim:
                raise InvalidInputError(f"index {i} does not match input shape {self.in_shape}")
            if not all(k < size for k, size in zip(i, self.in_shape)):
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

    def apply_each(self, X):
        X = _stacked(X, self.in_shape, "coordinate-select map")
        return X.reshape(len(X), math.prod(self.in_shape))[:, self._flat]

    def adjoint_each(self, Y):
        Y = _stacked(Y, self.out_shape, "coordinate-select adjoint")
        out = np.zeros((len(Y), *self.in_shape))
        out.reshape(len(Y), math.prod(self.in_shape))[:, self._flat] = Y
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


def numerical_rank(sigma):
    """Number of singular values above GROUP_TOL · max(1, σ₁), for sigma
    sorted non-increasing along its last axis: an int for one set of
    singular values, an array of ints for a stack of them."""
    scale = np.maximum(1.0, sigma[..., :1]) if sigma.shape[-1] else 1.0
    ranks = np.sum(sigma > GROUP_TOL * scale, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def svd(X, full_matrices: bool = True) -> tuple:
    """Full (or thin) singular value decomposition (U, σ, Vᵀ), exactly as
    np.linalg.svd returns it, with σ sorted non-increasing; numpy would
    return NaN singular values for a non-finite input, so that raises.  A
    stack of matrices (leading axes) is decomposed in one stacked call,
    each matrix's factors equal to those of its own call.

    The signs of the singular vectors are LAPACK's.  Every consumer is
    invariant under flipping a column of U together with the paired row
    of Vᵀ: the Γ_P(ḡ) projection (D·psd(M)·D = psd(DMD)), the nuclear-norm
    subdifferential distance (squared entries), the complementarity margin
    (eigenvalues of DBD) and the nuclear-norm prox U diag(σ') Vᵀ.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _require_finite(X, "svd input")
    return np.linalg.svd(X, full_matrices=full_matrices)


def singular_values(X) -> np.ndarray:
    """σ(X) sorted non-increasing, exactly as np.linalg.svd(X, compute_uv=False)
    returns them, also for a stack of matrices; a non-finite input raises,
    as in `svd`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _require_finite(X, "singular values input")
    return np.linalg.svd(X, compute_uv=False)


def psd_project(M):
    """Nearest (Frobenius) positive semidefinite matrix, of each matrix of
    a stack (leading axes), with one stacked eigh: each result equals that
    of the matrix's own call.

    Symmetrizes, eigendecomposes, clips negative eigenvalues.  The squared
    distance to the input decomposes as ‖skew part‖² + Σ min(λᵢ, 0)².
    """
    M = np.asarray(M, dtype=float)
    _require_finite(M, "psd_project input")
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidInputError("psd_project requires a square matrix")
    H = (M + _transposed(M)) / 2.0
    w, Q = np.linalg.eigh(H)
    D = np.zeros(M.shape)
    diagonal = np.arange(M.shape[-1])
    D[..., diagonal, diagonal] = np.maximum(w, 0.0)
    S = Q @ D @ _transposed(Q)
    return (S + _transposed(S)) / 2.0


def _transposed(M):
    """The transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(M, -1, -2)


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
