"""Finite quantitative algebras, term interpretation, satisfaction and
the empirical soundness harness.

Elements are concrete values: a base-sort element is an index into its
metric space's point list, and an arrow-sort element is a tuple of
codomain elements indexed by the (fully enumerated) domain carrier.
Carriers are enumerated in full only for the sorts that need it (bases,
explicitly requested arrow sorts, quantified-variable sorts); arrow
distances use the finite closed form of the sup-style hom distance and
work on any pair of tables over a full domain.  A term is compiled once
into closures, which satisfaction then runs for every environment.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (
    BudgetError,
    InterpretationError,
    PreconditionError,
    StructuralError,
)
from .metric_core import ExtReal, FiniteMetricSpace, nonexpansive_tables
from .quant_deduction import Derivation, Inference, QuantEquation, Theory, check_derivation
from .term_syntax import (
    App,
    ArrowSort,
    BaseSort,
    Bottom,
    Bound,
    COMBINATORS,
    Const,
    IntervalSort,
    Lam,
    Signature,
    Sort,
    Term,
    Var,
    free_vars,
    render_sort,
)

__all__ = [
    "FiniteQuantAlgebra",
    "build_full_type_structure",
    "build_grid_algebra",
    "interpret",
    "SatReport",
    "satisfies_inference",
    "soundness_harness",
]


class FiniteQuantAlgebra:
    """A finite applicative structure with sort-indexed exact distances.

    Distances are integers over one algebra-wide scale, the lcm of the
    base spaces' scales (math.inf for infinity); dist() gives ExtReal.
    bottom, when given, is the base-carrier index that interprets bottom
    at every base sort; without it bottom has no interpretation.
    """

    def __init__(
        self,
        name: str,
        signature: Signature,
        base_spaces: Mapping[Sort, FiniteMetricSpace],
        size_budget: int = 10**6,
        bottom: Optional[int] = None,
    ):
        self.name = name
        self.signature = signature
        self.base_spaces = dict(base_spaces)
        self.size_budget = size_budget
        self.bottom = bottom
        self.scale = math.lcm(*(space.scale for space in self.base_spaces.values()))
        self._carriers: dict[Sort, list] = {}
        self._index: dict[Sort, dict] = {}
        self._sym: dict[tuple[str, Sort], object] = {}
        self._matrices: dict[Sort, list[list]] = {}
        for sort, space in self.base_spaces.items():
            self._carriers[sort] = list(range(space.size))
            self._index[sort] = {i: i for i in range(space.size)}
            factor = self.scale // space.scale
            self._matrices[sort] = [[v * factor for v in row] for row in space.m]

    # carriers -----------------------------------------------------------
    def carrier(self, sort: Sort) -> list:
        hit = self._carriers.get(sort)
        if hit is None:
            raise StructuralError(f"no full carrier at sort {render_sort(sort)}")
        return hit

    def index(self, sort: Sort, element) -> int:
        try:
            return self._index[sort][element]
        except KeyError:
            self.carrier(sort)
            raise StructuralError(
                f"element is not in the carrier at {render_sort(sort)}"
            ) from None

    def populate_arrow(self, sort: Sort) -> list:
        """Fully enumerate the non-expansive maps at an arrow sort."""
        if sort in self._carriers:
            return self._carriers[sort]
        if not isinstance(sort, ArrowSort):
            raise StructuralError(f"no base space declared at {render_sort(sort)}")
        dom = self.populate_arrow(sort.dom) if isinstance(sort.dom, ArrowSort) else self.carrier(sort.dom)
        cod = self.populate_arrow(sort.cod) if isinstance(sort.cod, ArrowSort) else self.carrier(sort.cod)
        if len(cod) ** len(dom) > self.size_budget:
            raise BudgetError(f"carrier at {render_sort(sort)} exceeds the size budget")
        out = nonexpansive_tables(self._matrix(sort.dom), self._matrix(sort.cod), cod)
        self._carriers[sort] = out
        self._index[sort] = {f: i for i, f in enumerate(out)}
        return out

    # distances ----------------------------------------------------------
    def dist(self, sort: Sort, x, y) -> ExtReal:
        return ExtReal.scaled(self._idist(sort, x, y), self.scale)

    def _matrix(self, sort: Sort) -> list[list]:
        """Integer distances over the full carrier at a sort.  At an
        arrow sort every map is read as its table of codomain indices,
        and d(f, g) is the largest cm[f_i][g_j] above am[i][j], or 0."""
        hit = self._matrices.get(sort)
        if hit is None:
            elems = self.carrier(sort)
            am, cm = self._matrix(sort.dom), self._matrix(sort.cod)
            cdx = self._index[sort.cod]
            tables = [[cdx[c] for c in f] for f in elems]
            hit = []
            for f in tables:
                pairs = [(cm[c], arow) for c, arow in zip(f, am)]
                row = []
                for g in tables:
                    best = 0
                    for crow, arow in pairs:
                        for j, a in zip(g, arow):
                            b = crow[j]
                            if b > a and b > best:
                                best = b
                    row.append(best)
                hit.append(row)
            self._matrices[sort] = hit
        return hit

    def _idist(self, sort: Sort, x, y):
        """dist at the algebra's scale, as an integer or math.inf.  It
        reads the sort's matrix when there is one; otherwise, at an arrow
        sort, it takes the same sup over the domain matrix for x and y
        alone (a sort without a full carrier, or one whose matrix nothing
        has asked for: fts3 has 1,361 maps at o->o->o)."""
        m = self._matrices.get(sort)
        if not isinstance(sort, ArrowSort):
            if m is None:
                raise StructuralError(f"no base space at {render_sort(sort)}")
            return m[x][y]
        if m is not None:
            idx = self._index[sort]
            i, j = idx.get(x), idx.get(y)
            if i is not None and j is not None:
                return m[i][j]
        am = self._matrix(sort.dom)
        cod_dist = self._reader(sort.cod)
        best = 0
        for xi, row in zip(x, am):
            for yj, a in zip(y, row):
                b = cod_dist(xi, yj)
                if b > a and b > best:
                    best = b
        return best

    def _reader(self, sort: Sort) -> Callable[[object, object], object]:
        """_idist at one sort, with the base-sort lookup done once."""
        m = self._matrices.get(sort)
        if m is None or isinstance(sort, ArrowSort):
            return functools.partial(self._idist, sort)
        return lambda x, y: m[x][y]

    # application and symbols --------------------------------------------
    def apply(self, fsort: Sort, f, a):
        if not isinstance(fsort, ArrowSort):
            raise InterpretationError("application at a base sort")
        return f[self.index(fsort.dom, a)]

    def set_symbol(self, name: str, sort: Sort, element) -> None:
        if isinstance(sort, ArrowSort):
            if len(element) != len(self.carrier(sort.dom)):
                raise StructuralError(f"table of {name} has the wrong length at {render_sort(sort)}")
            # the sup of d(f x, f y) above d(x, y) is 0 exactly when f is non-expansive
            if self._idist(sort, element, element):
                raise PreconditionError(
                    f"interpretation of {name} is expansive at {render_sort(sort)}"
                )
        self._sym[(name, sort)] = element

    def symbol(self, name: str, sort: Sort):
        key = (name, sort)
        hit = self._sym.get(key)
        if hit is not None:
            return hit
        if self.signature.combinators and name in COMBINATORS:
            hit = self._combinator(name, sort)
            self._sym[key] = hit
            return hit
        raise InterpretationError(f"no interpretation for {name} at {render_sort(sort)}")

    def _combinator(self, name: str, sort: Sort):
        if name == "I":
            assert isinstance(sort, ArrowSort)
            return tuple(self.carrier(sort.dom))
        if name == "K":
            assert isinstance(sort, ArrowSort) and isinstance(sort.cod, ArrowSort)
            i, j = sort.dom, sort.cod.dom
            return tuple(
                tuple(a for _ in self.carrier(j)) for a in self.carrier(i)
            )
        if name == "S":
            assert isinstance(sort, ArrowSort) and isinstance(sort.cod, ArrowSort)
            fs = self.populate_arrow(sort.dom)
            gs = self.populate_arrow(sort.cod.dom)
            # gs holds maps into the sort, so its carrier and index exist
            jdx = self._index[sort.cod.dom.cod]
            return _STable(fs, [[jdx[b] for b in g] for g in gs])
        raise InterpretationError(f"unknown combinator {name}")

    # rendering ----------------------------------------------------------
    def render_element(self, sort: Sort, e) -> str:
        if isinstance(sort, ArrowSort):
            dom = self.carrier(sort.dom)
            entries = ",".join(
                f"{self.render_element(sort.dom, u)}>{self.render_element(sort.cod, e[i])}"
                for i, u in enumerate(dom)
            )
            return "{" + entries + "}"
        return self.base_spaces[sort].points[e]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "bases": {
                render_sort(s): sp.to_json() for s, sp in self.base_spaces.items()
            },
            "full_carriers": {
                render_sort(s): len(c)
                for s, c in self._carriers.items()
            },
        }


class _STable:
    """S at (i->j->k)->(i->j)->i->k: the table of f |-> S f, the rows in
    fs's order, each row built the first time it is read and then kept.
    Row f is the tuple over g_indices (each g as its indices into the
    carrier at j) of the maps x |-> f[x][g[x]].  Integer indexing, len,
    iteration, == and hash act as on the tuple of all rows, so an S value
    is an element like any other table; == and hash build every row."""

    __slots__ = ("_fs", "_g_indices", "_rows")

    def __init__(self, fs: Sequence[tuple], g_indices: Sequence[Sequence[int]]):
        self._fs = fs
        self._g_indices = g_indices
        self._rows: list = [None] * len(fs)

    def __getitem__(self, i: int) -> tuple:
        row = self._rows[i]
        if row is None:
            f = self._fs[i]
            row = self._rows[i] = tuple(
                [tuple([fx[j] for fx, j in zip(f, gi)]) for gi in self._g_indices]
            )
        return row

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return map(self.__getitem__, range(len(self._rows)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _STable)):
            return NotImplemented
        return self is other or (len(self) == len(other) and tuple(self) == tuple(other))

    def __hash__(self) -> int:
        return hash(tuple(self))


# ---------------------------------------------------------------------------
# Builders


def build_full_type_structure(
    base: FiniteMetricSpace,
    sorts: Sequence[Sort],
    size_budget: int = 10**6,
    base_sort: Optional[Sort] = None,
    signature: Optional[Signature] = None,
    name: str = "fts",
    bottom: Optional[int] = None,
) -> FiniteQuantAlgebra:
    """Full type structure over a finite metric base.

    Every requested arrow sort gets the complete set of non-expansive
    maps as its carrier, with the closed-form hom distance.  bottom is
    the base element that interprets bottom, if any.
    """
    base_sort = base_sort or BaseSort("o")
    alg = FiniteQuantAlgebra(
        name, signature or Signature(), {base_sort: base}, size_budget, bottom
    )
    for sort in sorts:
        if isinstance(sort, ArrowSort):
            alg.populate_arrow(sort)
        elif sort != base_sort:
            raise StructuralError(f"unknown base sort {render_sort(sort)}")
    return alg


def build_grid_algebra(
    intervals: Sequence[tuple[Fraction, Fraction, Fraction]],
    constants: Optional[Mapping[str, tuple[Sort, object]]] = None,
    signature: Optional[Signature] = None,
    name: str = "grid",
) -> FiniteQuantAlgebra:
    """Interval-grid algebra.

    intervals lists (lo, hi, step); each becomes the carrier of the
    matching interval sort with the absolute-difference distance.
    constants maps a symbol to (sort, value): a grid point for interval
    sorts, or a callable on grid values for arrow sorts (rejected if
    expansive).
    """
    spaces: dict[Sort, FiniteMetricSpace] = {}
    grids: dict[Sort, dict[Fraction, int]] = {}
    for lo, hi, step in intervals:
        lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
        sort = IntervalSort(lo, hi)
        space = FiniteMetricSpace.line_grid(lo, hi, step)
        grids[sort] = {lo + i * step: i for i in range(space.size)}
        spaces[sort] = space
    sig = signature or Signature(combinators=False)
    alg = FiniteQuantAlgebra(name, sig, spaces)

    for cname, (sort, value) in (constants or {}).items():
        if isinstance(sort, IntervalSort):
            index = grids.get(sort, {}).get(Fraction(value))
            if index is None:
                raise PreconditionError(f"{cname} is not a grid point of its sort")
            alg.set_symbol(cname, sort, index)
        elif isinstance(sort, ArrowSort):
            dom, cod = grids.get(sort.dom), grids.get(sort.cod)
            if dom is None or cod is None:
                raise PreconditionError("grid constants must map interval sorts")
            table = []
            for p in dom:
                v = Fraction(value(p))
                if v not in cod:
                    raise PreconditionError(f"table value {v} is not a grid point")
                table.append(cod[v])
            alg.set_symbol(cname, sort, tuple(table))
        else:
            raise PreconditionError(f"unsupported constant sort for {cname}")
        sig.constants.setdefault(cname, sort)
    return alg


# ---------------------------------------------------------------------------
# Interpretation


def interpret(t: Term, alg: FiniteQuantAlgebra, env: Optional[Mapping[str, object]] = None):
    """Evaluate a term to an algebra element.

    Variables come from env, application from the tables, lambdas by
    table formation over the (full) carrier of the bound sort.
    """
    return _compile(t, alg)(env or {}, ())


_UNSET = object()


def _compile(t: Term, alg: FiniteQuantAlgebra) -> Callable[[Mapping, tuple], object]:
    """t as nested closures run(env, stack), stack holding the values of
    the enclosing binders, innermost first.

    Each node looks up what it needs from the algebra (a constant's
    element, an application's domain index, a binder's carrier) the
    first time it is evaluated and keeps it, so every error is raised
    where and as a by-node evaluation raises it, function before
    argument.
    """
    if isinstance(t, Var):
        name = t.name

        def run(env, stack):
            try:
                return env[name]
            except KeyError:
                raise InterpretationError(f"no value for variable {name}") from None

        return run
    if isinstance(t, Bound):
        depth = t.index
        return lambda env, stack: stack[depth]
    if isinstance(t, Const):
        return _resolved_once(lambda: alg.symbol(t.name, t.sort))
    if isinstance(t, Bottom):
        return _resolved_once(lambda: _bottom(alg, t.sort))
    if isinstance(t, App):
        fn, arg, fsort = _compile(t.fn, alg), _compile(t.arg, alg), t.fn.sort
        index: Mapping = {}

        def run(env, stack):
            nonlocal index
            f = fn(env, stack)
            a = arg(env, stack)
            i = index.get(a)
            if i is None:
                # apply raises unless fsort is an arrow whose domain
                # carrier holds a
                value = alg.apply(fsort, f, a)
                index = alg._index[fsort.dom]
                return value
            return f[i]

        return run
    if isinstance(t, Lam):
        body = _compile(t.body, alg)
        carrier = None

        def run(env, stack):
            nonlocal carrier
            if carrier is None:
                carrier = alg.carrier(t.var_sort)
            return tuple([body(env, (v,) + stack) for v in carrier])

        return run

    def run(env, stack):
        raise StructuralError(f"unknown term node {t!r}")

    return run


def _resolved_once(resolve: Callable[[], object]) -> Callable[[Mapping, tuple], object]:
    value = _UNSET

    def run(env, stack):
        nonlocal value
        if value is _UNSET:
            value = resolve()
        return value

    return run


def _bottom(alg: FiniteQuantAlgebra, sort: Sort) -> int:
    if alg.bottom is None:
        raise InterpretationError("bottom has no interpretation in finite algebras")
    space = alg.base_spaces.get(sort)
    if space is None or not 0 <= alg.bottom < space.size:
        raise InterpretationError("bottom element outside the base carrier")
    return alg.bottom


# ---------------------------------------------------------------------------
# Satisfaction


@dataclass(frozen=True)
class SatReport:
    satisfied: bool
    counter_assignment: Optional[dict] = None
    counter_tuples: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "counter_assignment": self.counter_assignment,
            "counter_tuples": self.counter_tuples,
        }


def _inference_vars(inf: Inference) -> dict[str, Sort]:
    out: dict[str, Sort] = {}
    for eq in list(inf.hypotheses) + [inf.conclusion]:
        for term in (eq.left, eq.right):
            for name, sort in free_vars(term).items():
                if out.get(name, sort) != sort:
                    raise StructuralError(f"variable {name} occurs at two sorts")
                out[name] = sort
    return out


def _envs(alg: FiniteQuantAlgebra, var_sorts: Mapping[str, Sort]) -> Iterable[dict]:
    names = sorted(var_sorts)
    carriers = [alg.carrier(var_sorts[n]) for n in names]
    for combo in itertools.product(*carriers):
        yield dict(zip(names, combo))


def _violation_test(alg: FiniteQuantAlgebra, eq: QuantEquation) -> Callable[..., bool]:
    """eq with its sides compiled, as violates(left_env, right_env,
    delta=0): whether the sides, interpreted in left_env and right_env,
    lie farther apart than max(delta, eps); delta is an integer at the
    algebra's scale, and eps is compared exactly as d·den > num·scale."""
    left, right = _compile(eq.left, alg), _compile(eq.right, alg)
    dist = alg._reader(eq.sort)
    den, num = eq.eps.denominator, eq.eps.numerator * alg.scale

    def violates(left_env, right_env, delta=0) -> bool:
        d = dist(left(left_env, ()), right(right_env, ()))
        return d > delta and d * den > num

    return violates


def satisfies_inference(alg: FiniteQuantAlgebra, inf: Inference) -> SatReport:
    """Check an inference in the algebra.

    Environments range over the variables outside the conclusion's
    quantified set X, which every hypothesis must share.  For each, two
    tuples a and b range over X: left-hand sides are interpreted at a,
    right-hand sides at b, and every equation is compared against
    max(delta, epsilon), delta being the largest coordinate distance
    d(a_i, b_i).  With X empty there is one pair of empty tuples and
    delta is 0, so this is plain satisfaction over the environments, and
    a counterexample has no counter_tuples.  Each side is compiled once
    per call.
    """
    var_sorts = _inference_vars(inf)
    hyps = [_violation_test(alg, h) for h in inf.hypotheses]
    conc_violated = _violation_test(alg, inf.conclusion)
    xset = inf.conclusion.quantified
    for h in inf.hypotheses:
        if h.quantified != xset:
            raise StructuralError(
                "sat_star hypotheses must share the conclusion's quantified set"
            )
    xvars = sorted(xset, key=lambda v: v.name)
    xnames = {v.name for v in xvars}
    outer = {n: s for n, s in var_sorts.items() if n not in xnames}
    xcarriers = [alg.carrier(v.sort) for v in xvars]
    xdists = [alg._reader(v.sort) for v in xvars]
    for env in _envs(alg, outer):
        for avec in itertools.product(*xcarriers):
            for bvec in itertools.product(*xcarriers):
                delta = max(
                    (dist(a, b) for dist, a, b in zip(xdists, avec, bvec)), default=0
                )
                enva = {**env, **{v.name: a for v, a in zip(xvars, avec)}}
                envb = {**env, **{v.name: b for v, b in zip(xvars, bvec)}}
                if any(h(enva, envb, delta) for h in hyps):
                    continue
                if conc_violated(enva, envb, delta):
                    return SatReport(
                        False,
                        {n: alg.render_element(outer[n], v) for n, v in env.items()},
                        {
                            "a": [
                                alg.render_element(v.sort, a)
                                for v, a in zip(xvars, avec)
                            ],
                            "b": [
                                alg.render_element(v.sort, b)
                                for v, b in zip(xvars, bvec)
                            ],
                            "delta": ExtReal.scaled(delta, alg.scale).render(),
                        }
                        if xvars
                        else None,
                    )
    return SatReport(True)


# ---------------------------------------------------------------------------
# Soundness harness


def soundness_harness(
    th: Theory,
    derivations: Sequence[tuple[str, Derivation]],
    algebras: Sequence[tuple[str, FiniteQuantAlgebra]],
) -> list[dict]:
    """Model-check each derivation's conclusion in each algebra.

    One record per pair with status satisfied, violated or
    skipped:<reason>; any violated record indicates an implementation
    bug, by soundness.  The "mode" field names the satisfaction relation
    by the theory's kind, sat_star for lambda theories, whose equations
    may quantify variables; satisfies_inference covers both.
    """
    mode = "sat_star" if th.is_lambda else "sat"
    records: list[dict] = []
    for dname, deriv in derivations:
        check = check_derivation(deriv, th)
        for aname, alg in algebras:
            record = {
                "derivation": dname,
                "algebra": aname,
                "theory": th.name,
                "mode": mode,
            }
            if not check.ok:
                record["status"] = f"skipped:derivation does not check ({check.reason})"
                records.append(record)
                continue
            try:
                report = satisfies_inference(alg, deriv.conclusion)
            except (StructuralError, BudgetError, InterpretationError) as exc:
                record["status"] = f"skipped:{exc}"
                records.append(record)
                continue
            if report.satisfied:
                record["status"] = "satisfied"
            else:
                record["status"] = "violated"
                record["counterexample"] = report.to_json()
            records.append(record)
    return records
