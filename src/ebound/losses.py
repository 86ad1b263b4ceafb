"""Smooth losses h and the composite smooth part f = h∘A + ⟨c,·⟩."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidInputError
from .space import LinearMap, _require_finite, inner

# exp(y) overflows in double precision just above this
_POISSON_CAP = 700.0


class SmoothLoss:
    """Convex loss on the target space, C¹ on its (open) domain.  value and
    gradient check their input (its shape against the loss's shape, then
    in_domain) and call the unchecked _value and _gradient, which a loss
    defines with in_domain; CompositeSmooth checks the domain once per
    point (never for a constant-Hessian loss) and then calls the unchecked
    forms.  A loss that is a sum over its target coordinates, with a domain
    that is a product over them, returns from `split` the loss on some of
    them, so that CompositeSmooth.at_each can evaluate it one row panel of
    A at a time."""

    #: strongly convex with Lipschitz gradient on every compact convex
    #: subset of the domain; the regularity classification relies on it
    strongly_convex_on_compacts: bool = True

    #: global Lipschitz constant of ∇h, or None when there is none
    grad_lipschitz: float | None = None

    #: ∇h(y) = ∇h(0) + H y with a constant Hessian H, which hessian_product
    #: applies; CompositeSmooth then forms a sparse point's gradient from
    #: cached columns of A*HA.  Such a loss is a quadratic on the whole
    #: target space and keeps the base in_domain, so CompositeSmooth.at
    #: checks no domain for it
    constant_hessian: bool = False

    def hessian_product(self, v) -> np.ndarray:
        """H v, for a loss with a constant Hessian H."""
        raise NotImplementedError

    def in_domain(self, y) -> bool:
        return True

    def split(self, rows) -> "SmoothLoss | None":
        """The loss on the target coordinates `rows` (any index of a 1-d
        array), whose _gradient and in_domain are this loss's restricted to
        them, bit for bit; None when the loss does not split over its
        coordinates."""
        return None

    def value(self, y) -> float:
        return self._value(self._check(y))

    def gradient(self, y) -> np.ndarray:
        return self._gradient(self._check(y))

    def _value(self, y) -> float:
        raise NotImplementedError

    def _gradient(self, y) -> np.ndarray:
        raise NotImplementedError

    #: the shape every input y must have (its data's); None: any shape
    shape: tuple | None = None

    def _check(self, y):
        y = np.asarray(y, dtype=float)
        if self.shape is not None and y.shape != self.shape:
            raise InvalidInputError(f"{type(self).__name__}: input of shape {y.shape} "
                                    f"where the loss takes {self.shape}")
        if not self.in_domain(y):
            raise DomainError(f"{type(self).__name__}: point outside the loss domain")
        return y


@dataclass(frozen=True)
class LeastSquares(SmoothLoss):
    """h(y) = ½‖y − b‖²."""

    targets: np.ndarray
    grad_lipschitz = 1.0
    constant_hessian = True

    def __post_init__(self):
        b = np.asarray(self.targets, dtype=float)
        _require_finite(b, "LeastSquares targets")
        object.__setattr__(self, "targets", b)

    @property
    def shape(self):
        return self.targets.shape

    def _value(self, y):
        return 0.5 * float(((y - self.targets) ** 2).sum())

    def _gradient(self, y):
        return y - self.targets

    def hessian_product(self, v):
        return np.asarray(v, dtype=float)

    def split(self, rows):
        return replace(self, targets=self.targets[rows])


@dataclass(frozen=True)
class GeneralQuadratic(SmoothLoss):
    """h(y) = ½‖B^{1/2}y − B^{−1/2}d‖² = ½yᵀBy − ⟨d,y⟩ + ½dᵀB⁻¹d, B ≻ 0."""

    B: np.ndarray
    d: np.ndarray
    _constant: float = field(init=False, repr=False)
    grad_lipschitz: float = field(init=False, repr=False)  # ‖B‖₂
    constant_hessian = True

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        d = np.asarray(self.d, dtype=float)
        _require_finite(B, "GeneralQuadratic B")
        _require_finite(d, "GeneralQuadratic d")
        if B.ndim != 2 or B.shape[0] != B.shape[1] or d.ndim != 1 or d.size != B.shape[0]:
            raise InvalidInputError("GeneralQuadratic: B must be square and d conformable")
        if np.linalg.norm(B - B.T) > 1e-10 * max(1.0, np.linalg.norm(B)):
            raise InvalidInputError("GeneralQuadratic: B is not symmetric")
        w = np.linalg.eigvalsh((B + B.T) / 2.0)
        if w.min() <= 0:
            raise InvalidInputError(
                f"GeneralQuadratic: B is not positive definite (min eigenvalue {w.min():.3e})"
            )
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_constant", 0.5 * float(d @ np.linalg.solve(B, d)))
        object.__setattr__(self, "grad_lipschitz", float(np.linalg.norm(B, 2)))

    @property
    def shape(self):
        return self.d.shape

    def _value(self, y):
        return 0.5 * float(y @ self.B @ y) - float(self.d @ y) + self._constant

    def _gradient(self, y):
        return self.B @ y - self.d

    def hessian_product(self, v):
        return self.B @ v


@dataclass(frozen=True)
class Logistic(SmoothLoss):
    """h(y) = Σᵢ log(1 + exp(−yᵢ bᵢ)) with labels bᵢ ∈ {−1, +1}."""

    labels: np.ndarray
    grad_lipschitz = 0.25

    def __post_init__(self):
        b = np.asarray(self.labels, dtype=float)
        if not np.all(np.isin(b, (-1.0, 1.0))):
            raise InvalidInputError("Logistic labels must be ±1")
        object.__setattr__(self, "labels", b)

    @property
    def shape(self):
        return self.labels.shape

    def _value(self, y):
        return float(np.sum(np.logaddexp(0.0, -y * self.labels)))

    def _gradient(self, y):
        # −b·sigmoid(−yb), written via tanh for stability at large |y|
        return -self.labels * 0.5 * (1.0 - np.tanh(0.5 * y * self.labels))

    def split(self, rows):
        return replace(self, labels=self.labels[rows])


@dataclass(frozen=True)
class Poisson(SmoothLoss):
    """h(y) = Σᵢ (−yᵢ bᵢ + exp(yᵢ)) with counts bᵢ ∈ {0, 1, …}."""

    counts: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.counts, dtype=float)
        _require_finite(b, "Poisson counts")
        if np.any(b < 0) or np.any(b != np.round(b)):
            raise InvalidInputError("Poisson counts must be nonnegative integers")
        object.__setattr__(self, "counts", b)

    @property
    def shape(self):
        return self.counts.shape

    def in_domain(self, y):
        # exp overflow guard; the mathematical domain is all of T
        return bool(np.all(np.asarray(y) <= _POISSON_CAP))

    def _value(self, y):
        return float(np.sum(-y * self.counts + np.exp(y)))

    def _gradient(self, y):
        return -self.counts + np.exp(y)

    def split(self, rows):
        return replace(self, counts=self.counts[rows])


@dataclass(frozen=True)
class NoncompactExample(SmoothLoss):
    """The two-variable loss on {(x, y) : x < 1}:

        h(x, y) = y·exp((x−1)/y)  if y > 0,   0  if y ≤ 0.

    Convex and C¹ on its domain, but flat on the y ≤ 0 half, so not
    strongly convex on compact sets.
    """

    strongly_convex_on_compacts = False
    shape = (2,)

    def in_domain(self, y):
        return y[0] < 1.0

    def _value(self, y):
        a, b = y
        if b <= 0.0:
            return 0.0
        u = (a - 1.0) / b
        if u < -745.0:  # exp underflows; the value is indistinguishable from 0
            return 0.0
        return float(b * np.exp(u))

    def _gradient(self, y):
        a, b = y
        if b <= 0.0:
            return np.zeros(2)
        u = (a - 1.0) / b
        if u < -745.0:
            return np.zeros(2)
        e = np.exp(u)
        return np.array([e, (1.0 - u) * e])


class SmoothPoint:
    """f at one point x: y = A(x), f(x) = h(y) + ⟨c, x⟩ and ∇f(x), each
    formed on first read unless the caller gave it, from x itself (not a
    copy, so x must not change meanwhile) and `support`, what A.support
    returned when `at` scanned x, so x is not scanned again.  The gradient
    reads the cached columns of A*HA on the support when h has a constant
    Hessian H and the support is known: O(n·|supp x|), plus one forward and
    one adjoint for each coordinate new to the cache, and neither y nor
    f(x).  Otherwise it is A*∇h(y) + c, with one adjoint."""

    __slots__ = ("smooth", "x", "support", "_y", "_value", "_gradient")

    def __init__(self, smooth: "CompositeSmooth", x, y=None, given_gradient=None,
                 support=None):
        self.smooth, self.x, self.support = smooth, x, support
        self._y, self._value, self._gradient = y, None, given_gradient

    @property
    def y(self) -> np.ndarray:
        if self._y is None:
            self._y = self.smooth.A.apply_on(self.x, self.support)
        return self._y

    @property
    def value(self) -> float:
        if self._value is None:
            self._value = self.smooth._value(self.x, self.y)
        return self._value

    @property
    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            f, s = self.smooth, self.support
            Q = f.hessian_columns(s) if s is not None and f.h.constant_hessian else None
            if Q is None:
                self._gradient = f.A.adjoint(f.h._gradient(self.y)) + f.c
            else:
                self._gradient = (self.x.reshape(-1)[s] @ Q).reshape(f.c.shape) + f.zero_gradient
        return self._gradient


@dataclass
class _HessianColumns:
    """Q_j = A*(H(A e_j)) is rows[slot[j]], or not built when slot[j] < 0;
    block is rows[slot[support]] for the last support asked for."""

    slot: np.ndarray
    rows: np.ndarray
    support: np.ndarray | None = None
    block: np.ndarray | None = None


@dataclass(frozen=True)
class CompositeSmooth:
    """f(x) = h(A(x)) + ⟨c, x⟩ with gradient A*∇h(A(x)) + c.

    When h has a constant Hessian H, ∇f(x) = Σ_{j ∈ supp x} x_j Q_j + ∇f(0)
    with Q_j = A*(H(A e_j)), column j of A*HA.  At a point whose forward
    product gathers (LinearMap.support), the gradient reads the cached Q_j
    on its support in O(n·|supp x|), with the support that `at` scanned:
    each point's support is scanned once, and A(x) is never formed unless
    y or f(x) is read.
    Q_j costs one forward and one adjoint the first time coordinate j
    enters a support, and ∇f(0) one adjoint, once.  The |s|×n block of Q_j
    on a support s is kept while the support holds, so an iterate whose
    support did not change pays an O(|s|) comparison for it, not a gather.
    The cache holds at most as many columns as A has outputs, so it is
    never larger than a dense A; a point that would need more takes the
    adjoint.  ⟨c, x⟩ is formed only when c ≠ 0, which is decided once.  c
    must have A's input shape, every point x too, and a loss's data A's
    output shape.
    """

    h: SmoothLoss
    A: LinearMap
    c: np.ndarray
    _linear: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != tuple(self.A.in_shape):
            raise InvalidInputError(f"composite: c has shape {c.shape}, "
                                    f"the linear map takes {tuple(self.A.in_shape)}")
        shape = self.h.shape
        if shape is not None and shape != tuple(self.A.out_shape):
            raise InvalidInputError(f"composite: {type(self.h).__name__} takes inputs of "
                                    f"shape {shape}, which does not fit the linear map's "
                                    f"outputs of shape {tuple(self.A.out_shape)}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "_linear", bool(c.any()))

    @cached_property
    def zero_gradient(self) -> np.ndarray:
        """∇f(0) = A*∇h(0) + c."""
        return self.A.adjoint(self.h.gradient(np.zeros(self.A.out_shape))) + self.c

    @cached_property
    def _columns(self) -> _HessianColumns:
        return _HessianColumns(np.full(self.c.size, -1, dtype=np.intp),
                               np.empty((0, self.c.size)))

    def hessian_columns(self, s) -> np.ndarray | None:
        """The |s|×n array of Q_j for the flat indices j in s, building the
        missing ones; None when the cache would then hold more columns than
        A has outputs.  A*HA is symmetric, so Q_j is also its row j.  The
        array for the last s is kept and returned again, read-only, while s
        stays equal to it."""
        cache = self._columns
        last = cache.support
        if last is not None and last.size == s.size and (last == s).all():
            return cache.block
        new = s[cache.slot[s] < 0]
        if new.size:
            built = len(cache.rows)
            if built + new.size > int(np.prod(self.A.out_shape)):
                return None
            cols = []
            for j in new:
                e = np.zeros(self.c.shape)
                e.flat[j] = 1.0
                cols.append(self.A.adjoint(self.h.hessian_product(self.A(e))).reshape(-1))
            cache.rows = np.vstack([cache.rows, *cols])
            cache.slot[new] = np.arange(built, built + new.size)
        cache.support, cache.block = s, cache.rows[cache.slot[s]]
        cache.block.flags.writeable = False
        return cache.block

    @cached_property
    def _panels(self) -> tuple | None:
        """(rows, panel, h on rows) for each row panel of A, when A has more
        than one and h splits over its coordinates; else None."""
        panels = self.A.row_panels
        if len(panels) < 2:
            return None
        losses = [self.h.split(rows) for rows, _ in panels]
        if None in losses:
            return None
        return tuple((rows, P, h) for (rows, P), h in zip(panels, losses))

    def in_domain(self, x) -> bool:
        return self.h.in_domain(self.A(np.asarray(x, dtype=float)))

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != self.c.shape:
            raise InvalidInputError(f"composite: point of shape {x.shape}, "
                                    f"the linear map takes {self.c.shape}")
        return x

    def _value(self, x, y) -> float:
        """h(y) + ⟨c, x⟩, the inner product only for c ≠ 0."""
        return self.h._value(y) + inner(self.c, x) if self._linear else self.h._value(y)

    def at(self, x) -> SmoothPoint:
        """f at x, with x's support scanned once (A.support); the point forms
        y, f(x) and ∇f(x) on first read.  A constant-Hessian loss is a
        quadratic on the whole target space, so nothing more is formed here;
        any other loss's y is formed now and checked against its domain.
        Raises InvalidInputError when x does not have A's input shape, and
        DomainError when A(x) lies outside the loss domain."""
        x = self._point(x)
        point = SmoothPoint(self, x, support=self.A.support(x))
        if not self.h.constant_hessian and not self.h.in_domain(point.y):
            raise DomainError("composite: A(x) outside the loss domain")
        return point

    def at_each(self, xs) -> list:
        """f at every x in xs, with its gradient, or None for a point whose
        A(x) lies outside the loss domain: one stacked application of A for
        all the points and one of its adjoint for those in the domain (see
        LinearMap.apply_each), where `at` and a gradient cost one of each per
        point.  When A has more than one row panel and h splits (see
        `_by_panel`), the two products are formed panel by panel instead, so
        that each panel is read from memory once per call."""
        xs = [self._point(x) for x in xs]
        if self._panels is not None:
            return self._by_panel(xs)
        ys = self.A.apply_each(xs)
        inside = [i for i, y in enumerate(ys) if self.h.in_domain(y)]
        grads = self.A.adjoint_each([self.h._gradient(ys[i]) for i in inside])
        points = [None] * len(xs)
        for i, g in zip(inside, grads):
            points[i] = SmoothPoint(self, xs[i], ys[i], g + self.c)
        return points

    def _by_panel(self, xs) -> list:
        """at_each on A's row panels P, with X the points stacked once: per
        panel, Y_P = X Pᵀ, the domain test of h on P's rows for each point,
        ∇h_P(Y_P) in one call over the points still inside, and G +=
        ∇h_P(Y_P) P.  A point outside on some panel is dropped there, so no
        later product or ∇h reads it.  Each ∇f(x) is the sum of its panels'
        terms, the one-product adjoint up to rounding."""
        X = np.array(xs).reshape(len(xs), self.c.size)
        Y = np.empty((len(xs), *self.A.out_shape))
        G = np.zeros(X.shape)
        live = np.arange(len(xs))
        for rows, P, h in self._panels:
            Y_P = X @ P.T
            inside = np.array([h.in_domain(y) for y in Y_P], dtype=bool)
            if not inside.all():
                live, X, G, Y_P = live[inside], X[inside], G[inside], Y_P[inside]
            Y[live, rows] = Y_P
            G += h._gradient(Y_P) @ P
        points = [None] * len(xs)
        for i, g in zip(live, G):
            points[i] = SmoothPoint(self, xs[i], Y[i], g.reshape(self.c.shape) + self.c)
        return points

    def value(self, x) -> float:
        return self.at(x).value

    def gradient(self, x) -> np.ndarray:
        return self.at(x).gradient
