"""Smooth losses h and the composite smooth part f = h∘A + ⟨c,·⟩."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidInputError
from .space import LinearMap, inner

# exp(y) overflows in double precision just above this
_POISSON_CAP = 700.0


class SmoothLoss:
    """Convex loss on the target space, C¹ on its (open) domain."""

    #: strongly convex with Lipschitz gradient on every compact convex
    #: subset of the domain; the regularity classification relies on it
    strongly_convex_on_compacts: bool = True

    #: global Lipschitz constant of ∇h, or None when there is none
    grad_lipschitz: float | None = None

    def in_domain(self, y) -> bool:
        return True

    def value(self, y) -> float:
        raise NotImplementedError

    def gradient(self, y) -> np.ndarray:
        raise NotImplementedError

    @property
    def data(self) -> np.ndarray | None:
        """The data vector whose shape every input y must have; None for a
        loss with no data."""
        return None

    def _check(self, y):
        y = np.asarray(y, dtype=float)
        data = self.data
        if data is not None and y.shape != data.shape:
            raise InvalidInputError(f"{type(self).__name__}: input of shape {y.shape} "
                                    f"for data of shape {data.shape}")
        if not self.in_domain(y):
            raise DomainError(f"{type(self).__name__}: point outside the loss domain")
        return y


@dataclass(frozen=True)
class LeastSquares(SmoothLoss):
    """h(y) = ½‖y − b‖²."""

    targets: np.ndarray
    grad_lipschitz = 1.0

    def __post_init__(self):
        object.__setattr__(self, "targets", np.asarray(self.targets, dtype=float))

    @property
    def data(self):
        return self.targets

    def value(self, y):
        y = self._check(y)
        return 0.5 * float(np.sum((y - self.targets) ** 2))

    def gradient(self, y):
        y = self._check(y)
        return y - self.targets


@dataclass(frozen=True)
class GeneralQuadratic(SmoothLoss):
    """h(y) = ½‖B^{1/2}y − B^{−1/2}d‖² = ½yᵀBy − ⟨d,y⟩ + ½dᵀB⁻¹d, B ≻ 0."""

    B: np.ndarray
    d: np.ndarray
    _constant: float = field(init=False, repr=False)
    grad_lipschitz: float = field(init=False, repr=False)  # ‖B‖₂

    def __post_init__(self):
        B = np.asarray(self.B, dtype=float)
        d = np.asarray(self.d, dtype=float)
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
    def data(self):
        return self.d

    def value(self, y):
        y = self._check(y)
        return 0.5 * float(y @ self.B @ y) - float(self.d @ y) + self._constant

    def gradient(self, y):
        y = self._check(y)
        return self.B @ y - self.d


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
    def data(self):
        return self.labels

    def value(self, y):
        y = self._check(y)
        return float(np.sum(np.logaddexp(0.0, -y * self.labels)))

    def gradient(self, y):
        y = self._check(y)
        # −b·sigmoid(−yb), written via tanh for stability at large |y|
        return -self.labels * 0.5 * (1.0 - np.tanh(0.5 * y * self.labels))


@dataclass(frozen=True)
class Poisson(SmoothLoss):
    """h(y) = Σᵢ (−yᵢ bᵢ + exp(yᵢ)) with counts bᵢ ∈ {0, 1, …}."""

    counts: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.counts, dtype=float)
        if np.any(b < 0) or np.any(b != np.round(b)):
            raise InvalidInputError("Poisson counts must be nonnegative integers")
        object.__setattr__(self, "counts", b)

    @property
    def data(self):
        return self.counts

    def in_domain(self, y):
        # exp overflow guard; the mathematical domain is all of T
        return bool(np.all(np.asarray(y) <= _POISSON_CAP))

    def value(self, y):
        y = self._check(y)
        return float(np.sum(-y * self.counts + np.exp(y)))

    def gradient(self, y):
        y = self._check(y)
        return -self.counts + np.exp(y)


@dataclass(frozen=True)
class NoncompactExample(SmoothLoss):
    """The two-variable loss on {(x, y) : x < 1}:

        h(x, y) = y·exp((x−1)/y)  if y > 0,   0  if y ≤ 0.

    Convex and C¹ on its domain, but flat on the y ≤ 0 half, so not
    strongly convex on compact sets.
    """

    strongly_convex_on_compacts = False

    def in_domain(self, y):
        y = np.asarray(y)
        return y.shape == (2,) and y[0] < 1.0

    def value(self, y):
        y = self._check(y)
        a, b = y
        if b <= 0.0:
            return 0.0
        u = (a - 1.0) / b
        if u < -745.0:  # exp underflows; the value is indistinguishable from 0
            return 0.0
        return float(b * np.exp(u))

    def gradient(self, y):
        y = self._check(y)
        a, b = y
        if b <= 0.0:
            return np.zeros(2)
        u = (a - 1.0) / b
        if u < -745.0:
            return np.zeros(2)
        e = np.exp(u)
        return np.array([e, (1.0 - u) * e])


@dataclass(frozen=True, eq=False)
class SmoothPoint:
    """f evaluated at one point x: y = A(x) and f(x) = h(y) + ⟨c, x⟩.  The
    gradient A*∇h(y) + c is `given_gradient` when the caller formed it, and
    otherwise costs one adjoint and is formed on first use."""

    smooth: "CompositeSmooth"
    y: np.ndarray
    value: float
    given_gradient: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def gradient(self) -> np.ndarray:
        if self.given_gradient is not None:
            return self.given_gradient
        return self.smooth.A.adjoint(self.smooth.h.gradient(self.y)) + self.smooth.c


@dataclass(frozen=True)
class CompositeSmooth:
    """f(x) = h(A(x)) + ⟨c, x⟩ with gradient A*∇h(A(x)) + c."""

    h: SmoothLoss
    A: LinearMap
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))

    def in_domain(self, x) -> bool:
        return self.h.in_domain(self.A(np.asarray(x, dtype=float)))

    def at(self, x) -> SmoothPoint:
        """Evaluate f at x with one application of A; raises DomainError
        when A(x) lies outside the loss domain."""
        x = np.asarray(x, dtype=float)
        y = self.A(x)
        if not self.h.in_domain(y):
            raise DomainError("composite: A(x) outside the loss domain")
        return SmoothPoint(self, y, self.h.value(y) + inner(self.c, x))

    def at_each(self, xs) -> list:
        """f at every x in xs, with its gradient, or None for a point whose
        A(x) lies outside the loss domain: one stacked application of A for
        all the points and one of its adjoint for those in the domain (see
        LinearMap.apply_each), where `at` and a gradient cost one of each per
        point."""
        xs = [np.asarray(x, dtype=float) for x in xs]
        ys = self.A.apply_each(xs)
        inside = [i for i, y in enumerate(ys) if self.h.in_domain(y)]
        grads = self.A.adjoint_each([self.h.gradient(ys[i]) for i in inside])
        points = [None] * len(xs)
        for i, g in zip(inside, grads):
            points[i] = SmoothPoint(self, ys[i], self.h.value(ys[i]) + inner(self.c, xs[i]),
                                    g + self.c)
        return points

    def value(self, x) -> float:
        return self.at(x).value

    def gradient(self, x) -> np.ndarray:
        return self.at(x).gradient
