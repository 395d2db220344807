"""Exact distances and finite metric spaces.

Distances live in the non-negative rationals extended with infinity
(ExtReal); all arithmetic is exact, there is no floating point anywhere.
On top of that the module provides finite point spaces with a taxonomy
classifier (premetric / metric / ultrametric / partial ultrametric),
star-completion, binary products, enumeration of non-expansive maps, the
four hom-distances phi / xi / xi' / theta between such maps, and the
"enough midpoints" exponentiability check.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Literal, Optional, Sequence

from .errors import PreconditionError, StructuralError

__all__ = [
    "ExtReal",
    "INF",
    "FiniteMetricSpace",
    "SpaceClass",
    "PointMap",
    "classify_space",
    "star_completion",
    "product_space",
    "enumerate_nonexpansive",
    "hom_distance",
    "ExpCheckResult",
    "check_exponentiable",
]


@total_ordering
class ExtReal:
    """A non-negative rational, or infinity.

    Closed under addition, max and comparison; adding infinity to anything
    yields infinity.  Values are immutable and hashable.
    """

    __slots__ = ("_frac",)

    def __init__(self, value: "ExtReal | Fraction | int | str | None"):
        if isinstance(value, ExtReal):
            self._frac: Optional[Fraction] = value._frac
            return
        if value is None:
            self._frac = None
            return
        if isinstance(value, str):
            if value == "inf":
                self._frac = None
                return
            value = Fraction(value)
        frac = Fraction(value)
        if frac < 0:
            raise StructuralError(f"negative distance value: {frac}")
        self._frac = frac

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def fraction(self) -> Fraction:
        if self._frac is None:
            raise StructuralError("infinite value has no finite fraction")
        return self._frac

    def __add__(self, other: "ExtReal") -> "ExtReal":
        other = ExtReal(other)
        if self._frac is None or other._frac is None:
            return INF
        return ExtReal(self._frac + other._frac)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ExtReal, Fraction, int)):
            return NotImplemented
        other = ExtReal(other)
        return self._frac == other._frac

    def __lt__(self, other: "ExtReal") -> bool:
        other = ExtReal(other)
        if self._frac is None:
            return False
        if other._frac is None:
            return True
        return self._frac < other._frac

    def __hash__(self) -> int:
        return hash(self._frac)

    def render(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self) -> str:
        return f"ExtReal({self.render()!r})"


INF = ExtReal("inf")
ZERO = ExtReal(0)


def _ext_max(values: Iterable[ExtReal]) -> ExtReal:
    out = ZERO
    for v in values:
        if out < v:
            out = v
    return out


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite list of opaque points with a square ExtReal distance matrix.

    No metric axiom is enforced at construction; classify_space reports
    which taxonomy levels the matrix satisfies.
    """

    points: tuple[str, ...]
    dist: tuple[tuple[ExtReal, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.points)
        if len(set(self.points)) != n:
            raise StructuralError("duplicate point identifiers")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise StructuralError("distance matrix is not square on the point list")

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            raise StructuralError(f"unknown point {point!r}") from None

    def d(self, i: int, j: int) -> ExtReal:
        return self.dist[i][j]

    def d_name(self, p: str, q: str) -> ExtReal:
        return self.dist[self.index(p)][self.index(q)]

    def values(self) -> set[ExtReal]:
        return {v for row in self.dist for v in row}

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "dist": [[v.render() for v in row] for row in self.dist],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteMetricSpace":
        try:
            points = tuple(str(p) for p in data["points"])
            dist = tuple(
                tuple(ExtReal(v) for v in row) for row in data["dist"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"bad FiniteMetricSpace JSON: {exc}") from exc
        return FiniteMetricSpace(points, dist)

    @staticmethod
    def from_matrix(points: Sequence[str], rows: Sequence[Sequence]) -> "FiniteMetricSpace":
        return FiniteMetricSpace(
            tuple(points), tuple(tuple(ExtReal(v) for v in row) for row in rows)
        )

    @staticmethod
    def line_grid(lo: Fraction, hi: Fraction, step: Fraction) -> "FiniteMetricSpace":
        """Rational grid points of [lo, hi] with Euclidean distances.

        The step must divide the interval, so both ends are grid points.
        """
        lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
        if step <= 0 or hi < lo:
            raise StructuralError("bad grid bounds")
        count = (hi - lo) / step
        if count.denominator != 1:
            raise StructuralError("step does not divide the interval")
        pts = [lo + i * step for i in range(count.numerator + 1)]
        names = tuple(str(p) for p in pts)
        rows = tuple(
            tuple(ExtReal(abs(p - q)) for q in pts) for p in pts
        )
        return FiniteMetricSpace(names, rows)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class SpaceClass:
    premetric: bool
    metric: bool
    ultrametric: bool
    partial_ultrametric: bool

    def to_json(self) -> dict:
        return {
            "premetric": self.premetric,
            "metric": self.metric,
            "ultrametric": self.ultrametric,
            "partial_ultrametric": self.partial_ultrametric,
        }


def classify_space(space: FiniteMetricSpace) -> SpaceClass:
    """Check each axiom set exhaustively over all point tuples.

    premetric = (refl) + (symm); metric adds (trans); ultrametric adds
    (trans*); partial ultrametric = (symm) + (trans*) + (refl*).
    """
    n = space.size
    d = space.d
    refl = all(d(i, i) == ZERO for i in range(n))
    symm = all(d(i, j) == d(j, i) for i in range(n) for j in range(n))
    trans = all(
        d(i, j) <= d(i, k) + d(k, j)
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
    trans_star = all(
        d(i, j) <= _ext_max([d(i, k), d(k, j)])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )
    refl_star = all(
        d(i, i) <= d(i, j) and d(j, j) <= d(i, j)
        for i in range(n)
        for j in range(n)
    )
    premetric = refl and symm
    return SpaceClass(
        premetric=premetric,
        metric=premetric and trans,
        ultrametric=premetric and trans_star,
        partial_ultrametric=symm and trans_star and refl_star,
    )


def star_completion(space: FiniteMetricSpace) -> FiniteMetricSpace:
    """Zero out the diagonal of a partial ultrametric space."""
    if not classify_space(space).partial_ultrametric:
        raise PreconditionError("star_completion requires a partial ultrametric space")
    rows = tuple(
        tuple(ZERO if i == j else space.d(i, j) for j in range(space.size))
        for i in range(space.size)
    )
    return FiniteMetricSpace(space.points, rows)


def product_space(a: FiniteMetricSpace, b: FiniteMetricSpace) -> FiniteMetricSpace:
    """Cartesian product with the pointwise max distance."""
    points = tuple(f"({p},{q})" for p in a.points for q in b.points)
    pairs = [(i, j) for i in range(a.size) for j in range(b.size)]
    rows = tuple(
        tuple(_ext_max([a.d(i1, i2), b.d(j1, j2)]) for (i2, j2) in pairs)
        for (i1, j1) in pairs
    )
    return FiniteMetricSpace(points, rows)


@dataclass(frozen=True)
class PointMap:
    """A total map between finite spaces, given pointwise in domain order."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    table: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.table) != self.domain.size:
            raise StructuralError("map table length does not match domain size")
        for name in self.table:
            self.codomain.index(name)

    def apply(self, point: str) -> str:
        return self.table[self.domain.index(point)]

    def _indices(self) -> tuple[int, ...]:
        return tuple(self.codomain.index(p) for p in self.table)

    def is_nonexpansive(self) -> bool:
        idx = self._indices()
        n = self.domain.size
        return all(
            self.codomain.d(idx[i], idx[j]) <= self.domain.d(i, j)
            for i in range(n)
            for j in range(n)
        )

    @staticmethod
    def from_function(domain: FiniteMetricSpace, codomain: FiniteMetricSpace, fn) -> "PointMap":
        return PointMap(domain, codomain, tuple(fn(p) for p in domain.points))


def enumerate_nonexpansive(
    a: FiniteMetricSpace, b: FiniteMetricSpace
) -> list[PointMap]:
    """All non-expansive total maps a -> b, lexicographic in point orders."""
    maps: list[PointMap] = []
    for combo in itertools.product(range(b.size), repeat=a.size):
        ok = all(
            b.d(combo[i], combo[j]) <= a.d(i, j)
            for i in range(a.size)
            for j in range(i + 1, a.size)
        )
        if ok:
            maps.append(PointMap(a, b, tuple(b.points[k] for k in combo)))
    return maps


HomKind = Literal["phi", "xi", "xi_prime", "theta"]


def hom_distance(
    kind: HomKind,
    a: FiniteMetricSpace,
    b: FiniteMetricSpace,
    f: PointMap,
    g: PointMap,
) -> ExtReal:
    """Distance between two non-expansive maps f, g : a -> b.

    phi      = max over x of b(f(x), g(x));
    xi       = max of b(f(x), g(y)) over pairs where b(f(x), g(y)) > a(x, y),
               or 0 when no such pair exists (finite closed form of the
               defining infimum, which is attained at a b-value);
    xi_prime = least delta in {0} ∪ {b-values} such that a(x,y) <= delta
               implies b(f(x), g(y)) <= delta for all pairs;
    theta    = 0 when the tables coincide, else max over all pairs of
               b(f(x), g(y)).
    """
    for h in (f, g):
        if h.domain != a or h.codomain != b:
            raise PreconditionError("map endpoints do not match the given spaces")
        if not h.is_nonexpansive():
            raise PreconditionError("hom_distance requires non-expansive maps")
    fi = f._indices()
    gi = g._indices()
    n = a.size
    if kind == "phi":
        return _ext_max(b.d(fi[x], gi[x]) for x in range(n))
    if kind == "xi":
        return _ext_max(
            b.d(fi[x], gi[y])
            for x in range(n)
            for y in range(n)
            if a.d(x, y) < b.d(fi[x], gi[y])
        )
    if kind == "xi_prime":
        candidates = sorted({ZERO} | b.values())
        for delta in candidates:
            if all(
                b.d(fi[x], gi[y]) <= delta
                for x in range(n)
                for y in range(n)
                if a.d(x, y) <= delta
            ):
                return delta
        return INF
    if kind == "theta":
        if f.table == g.table:
            return ZERO
        return _ext_max(
            b.d(fi[x], gi[y]) for x in range(n) for y in range(n)
        )
    raise StructuralError(f"unknown hom-distance kind {kind!r}")


@dataclass(frozen=True)
class ExpCheckResult:
    ok: bool
    witness: Optional[tuple[str, str, ExtReal, ExtReal]] = None

    def to_json(self) -> dict:
        if self.ok:
            return {"ok": True}
        x0, x2, alpha, beta = self.witness  # type: ignore[misc]
        return {
            "ok": False,
            "witness": {
                "x0": x0,
                "x2": x2,
                "alpha": alpha.render(),
                "beta": beta.render(),
            },
        }


def _breakpoints(space: FiniteMetricSpace, total: ExtReal) -> list[ExtReal]:
    finite_values = sorted(
        {v for v in space.values() if not v.is_infinite}, key=lambda v: v.fraction
    )
    t = total.fraction
    cands: set[Fraction] = {Fraction(0), t / 2}
    for v in finite_values:
        cands.add(v.fraction)
        if t - v.fraction >= 0:
            cands.add(t - v.fraction)
    return [ExtReal(c) for c in sorted(c for c in cands if 0 <= c <= t)]


def check_exponentiable(
    space: FiniteMetricSpace, mode: Literal["full", "image_restricted"]
) -> ExpCheckResult:
    """Midpoint condition for exponentiability of a finite metric space.

    For each pair (x0, x2) and each candidate decomposition alpha + beta =
    d(x0, x2) the check demands some x1 with d(x0, x1) <= alpha and
    d(x1, x2) <= beta.  On finite spaces this is exactly the closure of the
    strict epsilon-relaxed condition.  full mode draws alpha from
    {0} ∪ {matrix values} ∪ {d(x0,x2) − matrix values} ∪ {d(x0,x2)/2};
    image_restricted mode requires alpha and beta both to be matrix values.
    Decompositions of infinite distances are skipped.
    """
    if mode not in ("full", "image_restricted"):
        raise StructuralError(f"unknown mode {mode!r}")
    if not classify_space(space).metric:
        raise PreconditionError("check_exponentiable requires a metric space")
    n = space.size
    image = space.values()
    for x0 in range(n):
        for x2 in range(n):
            total = space.d(x0, x2)
            if total.is_infinite:
                continue
            if mode == "full":
                alphas = _breakpoints(space, total)
            else:
                alphas = sorted(
                    (
                        v
                        for v in image
                        if not v.is_infinite and v.fraction <= total.fraction
                        and ExtReal(total.fraction - v.fraction) in image
                    ),
                    key=lambda v: v.fraction,
                )
            for alpha in alphas:
                beta = ExtReal(total.fraction - alpha.fraction)
                found = any(
                    space.d(x0, x1) <= alpha and space.d(x1, x2) <= beta
                    for x1 in range(n)
                )
                if not found:
                    return ExpCheckResult(
                        ok=False,
                        witness=(space.points[x0], space.points[x2], alpha, beta),
                    )
    return ExpCheckResult(ok=True)
