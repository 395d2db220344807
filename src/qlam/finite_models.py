"""Finite quantitative algebras, term interpretation, satisfaction and
the empirical soundness harness.

Elements are concrete values: a base-sort element is an index into its
metric space's point list, and an arrow-sort element is a tuple of
codomain elements indexed by the (fully enumerated) domain carrier.
Carriers are enumerated in full only for the sorts that need it (bases,
explicitly requested arrow sorts, quantified-variable sorts); arrow
distances use the finite closed form of the sup-style hom distance and
work on any pair of tables over a full domain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

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
    Bottom,
    Bound,
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
        self._dist_memo: dict = {}
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
        tables = itertools.product(cod, repeat=len(dom))
        # every table is non-expansive when no two codomain elements are
        # farther apart than the closest two domain elements (a discrete
        # base, for one)
        if len(dom) > 1:
            am, cm = self._matrix(sort.dom), self._matrix(sort.cod)
            closest = min(am[i][j] for i, j in itertools.combinations(range(len(dom)), 2))
            if any(cm[i][j] > closest for i, j in itertools.combinations(range(len(cod)), 2)):
                tables = (tuple(cod[c] for c in t) for t in nonexpansive_tables(am, cm))
        out = list(tables)
        self._carriers[sort] = out
        self._index[sort] = {f: i for i, f in enumerate(out)}
        return out

    def _table_nonexpansive(self, sort: ArrowSort, f: tuple) -> bool:
        am = self._matrix(sort.dom)
        for i, j in itertools.combinations(range(len(am)), 2):
            if self._idist(sort.cod, f[i], f[j]) > am[i][j]:
                return False
        return True

    # distances ----------------------------------------------------------
    def dist(self, sort: Sort, x, y) -> ExtReal:
        return ExtReal.scaled(self._idist(sort, x, y), self.scale)

    def _matrix(self, sort: Sort) -> list[list]:
        """Integer distances over the full carrier at a sort."""
        hit = self._matrices.get(sort)
        if hit is None:
            elems = self.carrier(sort)
            hit = [[self._idist(sort, x, y) for y in elems] for x in elems]
            self._matrices[sort] = hit
        return hit

    def _idist(self, sort: Sort, x, y):
        """dist at the algebra's scale, as an integer or math.inf."""
        if not isinstance(sort, ArrowSort):
            base = self._matrices.get(sort)
            if base is None:
                raise StructuralError(f"no base space at {render_sort(sort)}")
            return base[x][y]
        key = (sort, x, y)
        hit = self._dist_memo.get(key)
        if hit is not None:
            return hit
        best = 0
        for xi, row in zip(x, self._matrix(sort.dom)):
            for yj, a in zip(y, row):
                b = self._idist(sort.cod, xi, yj)
                if b > a and b > best:
                    best = b
        self._dist_memo[key] = best
        return best

    # application and symbols --------------------------------------------
    def apply(self, fsort: Sort, f, a):
        if not isinstance(fsort, ArrowSort):
            raise InterpretationError("application at a base sort")
        return f[self.index(fsort.dom, a)]

    def set_symbol(self, name: str, sort: Sort, element) -> None:
        if isinstance(sort, ArrowSort):
            if not self._table_nonexpansive(sort, element):
                raise PreconditionError(
                    f"interpretation of {name} is expansive at {render_sort(sort)}"
                )
        self._sym[(name, sort)] = element

    def symbol(self, name: str, sort: Sort):
        key = (name, sort)
        hit = self._sym.get(key)
        if hit is not None:
            return hit
        if self.signature.combinators and name in ("I", "K", "S"):
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
            xs = range(len(self.carrier(sort.cod.cod.dom)))
            # gs holds maps into the sort, so its carrier and index exist
            jdx = self._index[sort.cod.dom.cod]
            return tuple(
                tuple(tuple(f[ix][jdx[g[ix]]] for ix in xs) for g in gs)
                for f in fs
            )
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
    from .term_syntax import BaseSort

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
    size_budget: int = 10**6,
) -> FiniteQuantAlgebra:
    """Interval-grid algebra.

    intervals lists (lo, hi, step); each becomes the carrier of the
    matching interval sort with the absolute-difference distance.
    constants maps a symbol to (sort, value): a grid point for interval
    sorts, or a callable on grid values for arrow sorts (rejected if
    expansive).
    """
    spaces: dict[Sort, FiniteMetricSpace] = {}
    grids: dict[Sort, list[Fraction]] = {}
    for lo, hi, step in intervals:
        sort = IntervalSort(Fraction(lo), Fraction(hi))
        space = FiniteMetricSpace.line_grid(lo, hi, step)
        grids[sort] = [Fraction(p) for p in space.points]
        spaces[sort] = space
    sig = signature or Signature(combinators=False)
    alg = FiniteQuantAlgebra(name, sig, spaces, size_budget)

    for cname, (sort, value) in (constants or {}).items():
        if isinstance(sort, IntervalSort):
            pts = grids.get(sort)
            if pts is None or Fraction(value) not in pts:
                raise PreconditionError(f"{cname} is not a grid point of its sort")
            alg.set_symbol(cname, sort, pts.index(Fraction(value)))
        elif isinstance(sort, ArrowSort):
            table = _grid_table(alg, grids, sort, value)
            alg.set_symbol(cname, sort, table)
        else:
            raise PreconditionError(f"unsupported constant sort for {cname}")
        sig.constants.setdefault(cname, sort)
    return alg


def _grid_table(alg, grids, sort: ArrowSort, fn) -> tuple:
    dom_pts = grids.get(sort.dom)
    cod_pts = grids.get(sort.cod)
    if dom_pts is None or cod_pts is None:
        raise PreconditionError("grid constants must map interval sorts")
    out = []
    for p in dom_pts:
        v = Fraction(fn(p))
        if v not in cod_pts:
            raise PreconditionError(f"table value {v} is not a grid point")
        out.append(cod_pts.index(v))
    return tuple(out)


# ---------------------------------------------------------------------------
# Interpretation


def interpret(t: Term, alg: FiniteQuantAlgebra, env: Optional[Mapping[str, object]] = None):
    """Evaluate a term to an algebra element.

    Variables come from env, application from the tables, lambdas by
    table formation over the (full) carrier of the bound sort.
    """
    env = env or {}

    def go(t: Term, stack: tuple):
        if isinstance(t, Var):
            if t.name not in env:
                raise InterpretationError(f"no value for variable {t.name}")
            return env[t.name]
        if isinstance(t, Bound):
            return stack[t.index]
        if isinstance(t, Const):
            return alg.symbol(t.name, t.sort)
        if isinstance(t, Bottom):
            if alg.bottom is None:
                raise InterpretationError("bottom has no interpretation in finite algebras")
            space = alg.base_spaces.get(t.sort)
            if space is None or not 0 <= alg.bottom < space.size:
                raise InterpretationError("bottom element outside the base carrier")
            return alg.bottom
        if isinstance(t, App):
            return alg.apply(t.fn.sort, go(t.fn, stack), go(t.arg, stack))
        if isinstance(t, Lam):
            return tuple(
                go(t.body, (v,) + stack) for v in alg.carrier(t.var_sort)
            )
        raise StructuralError(f"unknown term node {t!r}")

    return go(t, ())


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


def _violates(alg: FiniteQuantAlgebra, eq: QuantEquation, left_env, right_env, delta=0) -> bool:
    """Whether eq's sides, interpreted in left_env and right_env, lie
    farther apart than max(delta, eps); delta is an integer at the
    algebra's scale, and eps is compared exactly as d·den > num·scale."""
    d = alg._idist(eq.sort, interpret(eq.left, alg, left_env), interpret(eq.right, alg, right_env))
    return d > delta and d * eq.eps.denominator > eq.eps.numerator * alg.scale


def satisfies_inference(
    alg: FiniteQuantAlgebra, inf: Inference, mode: str = "sat"
) -> SatReport:
    """Check an inference in the algebra.

    sat quantifies environments over the variables present.  sat_star
    additionally quantifies two tuples over the locally quantified
    variables, interprets the left tuple in left-hand sides and the
    right tuple in right-hand sides, and compares against max(delta,
    epsilon) bounds, delta being the largest coordinate distance.
    """
    if mode not in ("sat", "sat_star"):
        raise PreconditionError(f"unknown mode {mode}")
    var_sorts = _inference_vars(inf)
    eqs = list(inf.hypotheses) + [inf.conclusion]

    if mode == "sat":
        for eq in eqs:
            if eq.quantified:
                raise StructuralError("sat mode needs empty quantified sets")
        for env in _envs(alg, var_sorts):
            if any(_violates(alg, h, env, env) for h in inf.hypotheses):
                continue
            if _violates(alg, inf.conclusion, env, env):
                return SatReport(
                    False,
                    {n: alg.render_element(var_sorts[n], v) for n, v in env.items()},
                )
        return SatReport(True)

    # sat_star
    conc = inf.conclusion
    xset = conc.quantified
    for h in inf.hypotheses:
        if h.quantified != xset:
            raise StructuralError(
                "sat_star hypotheses must share the conclusion's quantified set"
            )
    xvars = sorted(xset, key=lambda v: v.name)
    xnames = {v.name for v in xvars}
    outer = {n: s for n, s in var_sorts.items() if n not in xnames}
    xcarriers = [alg.carrier(v.sort) for v in xvars]
    for env in _envs(alg, outer):
        for avec in itertools.product(*xcarriers):
            for bvec in itertools.product(*xcarriers):
                delta = max(
                    (alg._idist(v.sort, a, b) for v, a, b in zip(xvars, avec, bvec)), default=0
                )
                enva = {**env, **{v.name: a for v, a in zip(xvars, avec)}}
                envb = {**env, **{v.name: b for v, b in zip(xvars, bvec)}}
                if any(_violates(alg, h, enva, envb, delta) for h in inf.hypotheses):
                    continue
                if _violates(alg, conc, enva, envb, delta):
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
                        },
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
    bug, by soundness.
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
                report = satisfies_inference(alg, deriv.conclusion, mode)
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
