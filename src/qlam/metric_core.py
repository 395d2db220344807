"""Exact distances and finite metric spaces.

Distances live in the non-negative rationals extended with infinity.  A
finite space holds them as one integer matrix over one scale (math.inf
for infinity), and every check compares integers; ExtReal, an exact
Fraction or infinity, is what results and JSON carry.
On top of that the module provides finite point spaces with a taxonomy
classifier (premetric / metric / ultrametric / partial ultrametric),
enumeration of non-expansive maps, the four hom-distances phi / xi /
xi' / theta between such maps, and the "enough midpoints"
exponentiability check.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Literal, Optional, Sequence

from .errors import PreconditionError, StructuralError

__all__ = [
    "ExtReal",
    "INF",
    "FiniteMetricSpace",
    "SpaceClass",
    "PointMap",
    "classify_space",
    "enumerate_nonexpansive",
    "nonexpansive_tables",
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

    def __init__(self, value: "ExtReal | Fraction | int | str"):
        if type(value) is Fraction:
            frac = value
        elif isinstance(value, ExtReal):
            self._frac: Optional[Fraction] = value._frac
            return
        elif value == "inf":
            self._frac = None
            return
        else:
            frac = Fraction(value)
        if frac < 0:
            raise StructuralError(f"negative distance value: {frac}")
        self._frac = frac

    @property
    def is_infinite(self) -> bool:
        return self._frac is None

    @property
    def value(self) -> Fraction:
        if self._frac is None:
            raise StructuralError("infinite value has no finite fraction")
        return self._frac

    def __add__(self, other: "ExtReal | Fraction | int") -> "ExtReal":
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if self._frac is None or other._frac is None:
            return INF
        return ExtReal(self._frac + other._frac)

    def __eq__(self, other: object) -> bool:
        other = _coerce(other)
        return other if other is NotImplemented else self._frac == other._frac

    def __lt__(self, other: "ExtReal | Fraction | int") -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self._frac is not None and (other._frac is None or self._frac < other._frac)

    def __hash__(self) -> int:
        return hash(self._frac)

    @staticmethod
    def scaled(value, scale: int) -> "ExtReal":
        """The value of an integer distance (or math.inf) at scale."""
        return INF if value == math.inf else ExtReal(Fraction(value, scale))

    def render(self) -> str:
        return "inf" if self._frac is None else str(self._frac)

    def __repr__(self) -> str:
        return f"ExtReal({self.render()!r})"


def _coerce(other):
    """An ExtReal operand as it is, a Fraction or int wrapped, and
    NotImplemented for anything else (a str too)."""
    if isinstance(other, ExtReal):
        return other
    return ExtReal(other) if isinstance(other, (Fraction, int)) else NotImplemented


INF = ExtReal("inf")
ZERO = ExtReal(0)
inf = math.inf


def _factors(a: "FiniteMetricSpace", b: "FiniteMetricSpace") -> tuple[int, int]:
    """Multipliers that bring a's and b's integers to the lcm of their scales."""
    common = math.lcm(a.scale, b.scale)
    return common // a.scale, common // b.scale


class FiniteMetricSpace:
    """A finite list of opaque points with a square distance matrix.

    The matrix is held as integers m[i][j] over one scale, the lcm of
    the reduced denominators, with math.inf for an infinite distance, so
    equal spaces have equal representations.  The constructor takes
    ExtReal-convertible rows; d(), dist and values() give ExtReal.  No
    metric axiom is enforced; classify_space reports which taxonomy
    levels the matrix satisfies.
    """

    __slots__ = ("points", "m", "scale", "_index")

    def __init__(self, points: Sequence[str], rows: Sequence[Sequence], scale: Optional[int] = None):
        """rows hold ExtReal-convertible values or, when scale is given,
        integers (and math.inf) at that scale."""
        if scale is None:
            fracs = [[ExtReal(v)._frac for v in row] for row in rows]
            scale = math.lcm(*(f.denominator for row in fracs for f in row if f is not None))
            rows = [[inf if f is None else f.numerator * scale // f.denominator for f in row]
                    for row in fracs]
        self.points = tuple(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise StructuralError("duplicate point identifiers")
        if len(rows) != self.size or any(len(row) != self.size for row in rows):
            raise StructuralError("distance matrix is not square on the point list")
        values = set().union(*rows)
        values.discard(inf)
        g = math.gcd(scale, *values)
        if g != 1:
            rows = [[v if v == inf else v // g for v in row] for row in rows]
        self.scale = scale // g
        self.m = tuple(map(tuple, rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteMetricSpace):
            return NotImplemented
        return self is other or (
            self.points == other.points and self.scale == other.scale and self.m == other.m
        )

    def __hash__(self) -> int:
        return hash((self.points, self.scale, self.m))

    def __repr__(self) -> str:
        return f"FiniteMetricSpace({self.points!r}, {self.to_json()['dist']!r})"

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self._index[point]
        except (KeyError, TypeError):
            raise StructuralError(f"unknown point {point!r}") from None

    def d(self, i: int, j: int) -> ExtReal:
        return ExtReal.scaled(self.m[i][j], self.scale)

    @property
    def dist(self) -> tuple[tuple[ExtReal, ...], ...]:
        return tuple(tuple(ExtReal.scaled(v, self.scale) for v in row) for row in self.m)

    def d_name(self, p: str, q: str) -> ExtReal:
        return self.d(self.index(p), self.index(q))

    def values(self) -> set[ExtReal]:
        return {ExtReal.scaled(v, self.scale) for row in self.m for v in set(row)}

    def to_json(self) -> dict:
        return {
            "points": list(self.points),
            "dist": [[ExtReal.scaled(v, self.scale).render() for v in row] for row in self.m],
        }

    @staticmethod
    def from_json(data: dict) -> "FiniteMetricSpace":
        """points: a list of strings; dist: rows of Fraction strings,
        "inf" or integers (no float, bool or null)."""
        if not isinstance(data, dict):
            raise StructuralError("bad FiniteMetricSpace JSON: not an object")
        points, rows = data.get("points"), data.get("dist")
        if not (isinstance(points, list) and all(isinstance(p, str) for p in points)):
            raise StructuralError("bad FiniteMetricSpace JSON: points must be a list of strings")
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)) or any(
            isinstance(v, bool) or not isinstance(v, (str, int)) for row in rows for v in row
        ):
            raise StructuralError("bad FiniteMetricSpace JSON: dist must be rows of strings or integers")
        try:
            return FiniteMetricSpace(points, rows)
        except (ValueError, ZeroDivisionError) as exc:
            raise StructuralError(f"bad FiniteMetricSpace JSON: {exc}") from exc

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
        n = count.numerator + 1
        names = tuple(str(lo + i * step) for i in range(n))
        # d[k] is k steps; row i is d[i], ..., d[1], then d[0], ..., d[n-1-i]
        d = tuple(range(0, n * step.numerator, step.numerator))
        m = tuple(d[i:0:-1] + d[: n - i] for i in range(n))
        return FiniteMetricSpace(names, m, step.denominator)

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
    m = space.m
    diag = [row[i] for i, row in enumerate(m)]
    refl = all(v == 0 for v in diag)
    symm = all(row == col for row, col in zip(m, zip(*m)))
    refl_star = all(di <= v and dj <= v for di, row in zip(diag, m) for dj, v in zip(diag, row))
    premetric = refl and symm
    trans = premetric and all(
        dij <= dik + dkj for ri in m for dik, rk in zip(ri, m) for dij, dkj in zip(ri, rk)
    )
    trans_star = (premetric or (symm and refl_star)) and all(
        dij <= dik or dij <= dkj for ri in m for dik, rk in zip(ri, m) for dij, dkj in zip(ri, rk)
    )
    return SpaceClass(
        premetric=premetric,
        metric=trans,
        ultrametric=premetric and trans_star,
        partial_ultrametric=symm and trans_star and refl_star,
    )


@dataclass(frozen=True)
class PointMap:
    """A total map between finite spaces, as codomain indices in domain order."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != self.domain.size:
            raise StructuralError("map table length does not match domain size")
        for c in self.indices:
            if type(c) is not int or not 0 <= c < self.codomain.size:
                raise StructuralError(f"map entry {c!r} is not a codomain index")

    @property
    def table(self) -> tuple[str, ...]:
        """The image of each domain point by name."""
        return tuple(self.codomain.points[c] for c in self.indices)

    def apply(self, point: str) -> str:
        return self.codomain.points[self.indices[self.domain.index(point)]]

    def is_nonexpansive(self) -> bool:
        idx = self.indices
        fd, fc = _factors(self.domain, self.codomain)
        cm = self.codomain.m
        return all(
            cm[idx[i]][idx[j]] * fc <= v * fd
            for i, row in enumerate(self.domain.m)
            for j, v in enumerate(row)
        )


def nonexpansive_tables(
    am: Sequence[Sequence], bm: Sequence[Sequence], points: Sequence
) -> list[tuple]:
    """The tables f over points with bm[f_i][f_j] <= am[i][j] for every
    ordered pair (i, j), the diagonal included, as is_nonexpansive tests;
    f_i indexes points and f lists points[f_i].  They come out as
    itertools.product(points, repeat=len(am)) would list them.

    am and bm are distance matrices at one scale.  Position j offers the
    indices c with bm[c][c] <= am[j][j].  If each offers every index and
    no bm distance exceeds one between two positions, every table passes
    (a discrete base, for one).  Otherwise prefixes are extended in order,
    with one candidate iterator per position in place of recursion, and
    j takes c when the test holds both ways against each earlier position.
    """
    n, m = len(am), len(bm)
    offers = [[c for c in range(m) if bm[c][c] <= am[j][j]] for j in range(n)]
    if all(len(cs) == m for cs in offers) and (
        n < 2
        or max(map(max, bm), default=0)
        <= min(am[i][j] for i in range(n) for j in range(n) if i != j)
    ):
        return list(itertools.product(points, repeat=n))
    tables: list[tuple] = []
    combo: list[int] = []
    stack = [iter(offers[0])]
    while stack:
        j = len(combo)
        for c in stack[-1]:
            if all(bm[ci][c] <= am[i][j] and bm[c][ci] <= am[j][i] for i, ci in enumerate(combo)):
                if j + 1 == n:
                    tables.append(tuple(points[ci] for ci in (*combo, c)))
                else:
                    combo.append(c)
                    stack.append(iter(offers[j + 1]))
                    break
        else:
            stack.pop()
            if combo:
                combo.pop()
    return tables


def enumerate_nonexpansive(
    a: FiniteMetricSpace, b: FiniteMetricSpace
) -> list[PointMap]:
    """All non-expansive total maps a -> b, lexicographic in point orders."""
    fa, fb = _factors(a, b)
    am = [[v * fa for v in row] for row in a.m]
    bm = [[v * fb for v in row] for row in b.m]
    return [PointMap(a, b, table) for table in nonexpansive_tables(am, bm, range(b.size))]


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
               implies b(f(x), g(y)) <= delta for all pairs, that is,
               outside every interval a(x,y) <= delta < b(f(x), g(y));
    theta    = 0 when the tables coincide, else max over all pairs of
               b(f(x), g(y)).
    a- and b-values are compared over the lcm of the two scales.
    """
    for h in (f, g):
        if h.domain != a or h.codomain != b:
            raise PreconditionError("map endpoints do not match the given spaces")
        if not h.is_nonexpansive():
            raise PreconditionError("hom_distance requires non-expansive maps")
    fa, fb = _factors(a, b)
    gi = g.indices
    # bf[x][y] = b(f(x), g(y)) at b's scale
    bf = [[row[j] for j in gi] for row in (b.m[i] for i in f.indices)]
    if kind == "phi":
        return ExtReal.scaled(max((row[x] for x, row in enumerate(bf)), default=0), b.scale)
    if kind == "theta":
        if f.indices == g.indices:
            return ZERO
        return ExtReal.scaled(max((v for row in bf for v in row), default=0), b.scale)
    # the pairs with a(x, y) < b(f(x), g(y)), as (a, b) at the common scale
    over = [
        (u * fa, v * fb) for ra, rb in zip(a.m, bf) for u, v in zip(ra, rb) if u * fa < v * fb
    ]
    if kind == "xi":
        return ExtReal.scaled(max((v for _, v in over), default=0), b.scale * fb)
    if kind == "xi_prime":
        over.sort()
        reach, k = -1, 0
        for delta in sorted({0} | {v for row in b.m for v in row}):
            while k < len(over) and over[k][0] <= delta * fb:
                reach = max(reach, over[k][1])
                k += 1
            if reach <= delta * fb:
                return ExtReal.scaled(delta, b.scale)
        return INF
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


def check_exponentiable(
    space: FiniteMetricSpace, mode: Literal["full", "image_restricted"]
) -> ExpCheckResult:
    """Midpoint condition for exponentiability of a finite metric space.

    For each pair (x0, x2) and each candidate decomposition alpha + beta =
    d(x0, x2) the check demands some x1 with d(x0, x1) <= alpha and
    d(x1, x2) <= beta.  On finite spaces this is exactly the closure of the
    strict epsilon-relaxed condition.  full mode draws alpha from
    {0} ∪ {matrix values} ∪ {d(x0,x2) − matrix values} ∪ {d(x0,x2)/2},
    at twice the scale so that d/2 is an integer;
    image_restricted mode requires alpha and beta both to be matrix values.
    Decompositions of infinite distances are skipped.  Candidates are
    tried in increasing order against the points sorted by d(x0, x1),
    keeping the least d(x1, x2) among those within alpha.
    """
    if mode not in ("full", "image_restricted"):
        raise StructuralError(f"unknown mode {mode!r}")
    if not classify_space(space).metric:
        raise PreconditionError("check_exponentiable requires a metric space")
    m = space.m
    image = {v for row in m for v in row}
    finite = sorted(image - {inf})
    mult = 2 if mode == "full" else 1
    for x0, row0 in enumerate(m):
        order = sorted(range(space.size), key=row0.__getitem__)
        for x2, total in enumerate(row0):
            if total == inf:
                continue
            reachable = [v for v in finite if v <= total]
            if mode == "full":
                doubled = [2 * v for v in reachable]
                alphas = sorted({0, total, *doubled, *(2 * total - v for v in doubled)})
            else:
                alphas = [v for v in reachable if total - v in image]
            t, k, best = total * mult, 0, inf
            for alpha in alphas:
                while k < len(order) and row0[order[k]] * mult <= alpha:
                    best = min(best, m[order[k]][x2])
                    k += 1
                if best * mult > t - alpha:
                    s = space.scale * mult
                    alpha_beta = ExtReal.scaled(alpha, s), ExtReal.scaled(t - alpha, s)
                    return ExpCheckResult(False, (space.points[x0], space.points[x2], *alpha_beta))
    return ExpCheckResult(ok=True)
