"""Distances on normal forms: projections, the exact tree ultrametric e,
the witness-bounded partial ultrametric on normal forms, the order
distance, the full-type-hierarchy distance, and approximate application.

All values are exact rationals.  The normal-form distance quantifies over
infinitely many argument terms, so it is computed against a finite,
deterministically ordered witness set and returns a certificate that says
whether the value is exact or only a lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InterpretationError, PreconditionError, SortError
from .finite_models import build_full_type_structure, interpret
from .metric_core import ZERO, ExtReal, FiniteMetricSpace
from .rewrite_engine import NormalForm, normalize
from .term_syntax import (
    _print,
    _rewrap,
    _spine,
    _strip,
    App,
    ArrowSort,
    Bottom,
    Bound,
    Const,
    Lam,
    STAR,
    Signature,
    Sort,
    Term,
    Var,
    app,
    print_term,
    sort_spine,
    subterms,
)

__all__ = [
    "project",
    "nf_depth",
    "agreement_level",
    "e_distance",
    "enumerate_closed_nfs",
    "DistCertificate",
    "DnfContext",
    "dnf_distance",
    "OrderResult",
    "order_distance",
    "fth_distance",
    "approx_apply",
]


# ---------------------------------------------------------------------------
# Dyadic values


def _dyadic(level: float) -> ExtReal:
    """1/2^level, and 0 for level inf: the values of the tree distances,
    which compute on integer levels."""
    return ZERO if level == math.inf else ExtReal(Fraction(1, 1 << level))


# ---------------------------------------------------------------------------
# Projections


def _project(t: Term, n: int) -> Term:
    binders, core = _strip(t)
    head, args = _spine(core)
    if isinstance(head, (Bottom, Const)):
        # bottom-bodied and constant-headed forms are projection fixed points
        return t
    if n == 0:
        return _rewrap(binders, Bottom(core.sort))
    return _rewrap(binders, app(head, *(_project(a, n - 1) for a in args)))


def project(t: NormalForm, n: int) -> NormalForm:
    """Cut the tree below level n, replacing removed bodies by bottom."""
    if n < 0:
        raise PreconditionError("projection level must be a natural number")
    return NormalForm(_project(t.term, n))


def nf_depth(t: Term) -> int:
    """Least n with project(t, n) = t."""
    _, core = _strip(t)
    head, args = _spine(core)
    if isinstance(head, (Bottom, Const)):
        return 0
    return 1 + max((nf_depth(a) for a in args), default=0)


# ---------------------------------------------------------------------------
# The exact tree ultrametric e


def agreement_level(t: NormalForm, s: NormalForm) -> Optional[int]:
    """The largest n with project(t, n) == project(s, n): -1 when even
    level 0 differs, None when every level agrees (t == s).  One walk over
    both trees, comparing binder sorts, heads and arities."""
    if t.sort != s.sort:
        raise SortError("agreement_level requires equal sorts")
    best: Optional[int] = None
    stack = [(t.term, s.term, 0)]
    while stack:
        a, b, depth = stack.pop()
        # a pair at this depth cannot lower best below depth - 1
        if a is b or (best is not None and depth > best):
            continue
        # the lambda prefixes must agree in length and binder sorts
        while type(a) is Lam and type(b) is Lam and a.var_sort == b.var_sort:
            a, b = a.body, b.body
        if type(a) is Lam or type(b) is Lam:
            level = -1
        else:
            head_a, args_a = _spine(a)
            head_b, args_b = _spine(b)
            # level 0 cuts a body to bottom unless it is bottom- or
            # constant-headed; such a bottom equals a kept body only when
            # that body is a bare bottom
            fixed_a = isinstance(head_a, (Bottom, Const))
            fixed_b = isinstance(head_b, (Bottom, Const))
            if fixed_a and fixed_b:
                if a == b:
                    continue
                level = -1
            elif fixed_a or fixed_b:
                kept = a if fixed_a else b
                level = 0 if type(kept) is Bottom and a.sort == b.sort else -1
            elif a.sort != b.sort:
                level = -1
            elif head_a != head_b or len(args_a) != len(args_b):
                level = 0
            else:
                stack.extend(zip(args_a, args_b, itertools.repeat(depth + 1)))
                continue
        if best is None or depth + level < best:
            best = depth + level
    return best


def e_distance(t: NormalForm, s: NormalForm) -> ExtReal:
    """1/2^m with m the largest level at which the projections agree."""
    level = agreement_level(t, s)
    return ZERO if level is None else _dyadic(max(level, 0))


# ---------------------------------------------------------------------------
# Witness enumeration


def _min_size(sort: Sort) -> int:
    # lambda x1..xm. bottom always exists
    return len(sort_spine(sort)[0]) + 1


class _Enumerator:
    """Closed eta-long normal forms of a sort, by exact size.

    Each list of one exact size is built once, from the lists of strictly
    smaller sizes (size-indexed enumeration, as in Duregard, Jansson and
    Wang's FEAT).  A binder at depth k is hinted w{k}, so a memo key names
    only the enclosing binders' sorts and binders share entries.
    """

    def __init__(self, constants: Mapping[str, Sort]):
        self.constants = dict(constants)
        self._memo: dict = {}
        self._max: dict = {}

    def generate(self, sort: Sort, budget: int) -> list[tuple[Term, int, int]]:
        """(term, size, bottom count) triples up to the budget; size counts
        the nodes of term."""
        return [e for n in range(1, budget + 1) for e in self._exact(sort, (), n)]

    def exhaustive(self, sort: Sort, budget: int) -> bool:
        """Whether no closed normal form of the sort is larger than budget."""
        return self._max_size(sort, frozenset()) <= budget

    def _exact(self, sort: Sort, ctx: tuple[Sort, ...], n: int) -> list[tuple[Term, int, int]]:
        if n < 1:
            return []
        key = (sort, ctx, n)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        out: list[tuple[Term, int, int]] = []
        if isinstance(sort, ArrowSort):
            name = f"w{len(ctx)}"
            for body, _, bots in self._exact(sort.cod, ctx + (sort.dom,), n - 1):
                out.append((Lam(name, sort.dom, body), n, bots))
        else:
            if n == 1:
                out.append((Bottom(sort), 1, 1))
                for cname, csort in self.constants.items():
                    if csort == sort:
                        out.append((Const(cname, sort), 1, 0))
            # ctx lists the enclosing binders' sorts, outermost first
            for p, psort in enumerate(ctx):
                arg_sorts, base = sort_spine(psort)
                if base == sort:
                    head = Bound(len(ctx) - 1 - p, psort)
                    for args, bots in self._tuples(arg_sorts, ctx, n - 1 - len(arg_sorts)):
                        out.append((app(head, *args), n, bots))
        self._memo[key] = out
        return out

    def _tuples(
        self, sorts: Sequence[Sort], ctx: tuple[Sort, ...], n: int
    ) -> Iterable[tuple[tuple[Term, ...], int]]:
        """Argument tuples of summed size exactly n, with their bottom
        counts; the last argument takes what the others leave."""
        if not sorts:
            if n == 0:
                yield (), 0
            return
        if len(sorts) == 1:
            for last, _, bots in self._exact(sorts[0], ctx, n):
                yield (last,), bots
            return
        rest_min = sum(_min_size(s) for s in sorts[1:])
        for size in range(_min_size(sorts[0]), n - rest_min + 1):
            for first, _, bots in self._exact(sorts[0], ctx, size):
                for rest, rest_bots in self._tuples(sorts[1:], ctx, n - size):
                    yield (first,) + rest, bots + rest_bots

    def _max_size(self, sort: Sort, ctx: frozenset) -> float:
        """The largest normal form of the sort over binders of the sorts in
        ctx; inf when a form of its base recurs over the same binder sorts,
        found as a key met again while it is being computed."""
        arg_sorts, base = sort_spine(sort)
        ctx = ctx.union(arg_sorts)
        key = (base, ctx)
        best = self._max.get(key)
        if best is None:
            self._max[key] = math.inf
            best = 1
            for psort in ctx:
                p_args, p_base = sort_spine(psort)
                if p_base == base:
                    size = 1 + len(p_args) + sum(self._max_size(a, ctx) for a in p_args)
                    best = max(best, size)
            self._max[key] = best
        return len(arg_sorts) + best


def enumerate_closed_nfs(
    sort: Sort,
    budget: int,
    constants: Optional[Mapping[str, Sort]] = None,
) -> tuple[list[NormalForm], bool]:
    """All closed eta-long normal forms of the sort up to the size budget.

    Ordered with maximal-information witnesses first: fewest bottom
    leaves, then size, then printed form; a binder at depth k is hinted
    w{k}.  The second component reports whether the set is exhaustive:
    no closed normal form of the sort is larger than the budget.
    """
    if isinstance(sort, type(STAR)):
        raise SortError("witness enumeration is typed-only")
    enum = _Enumerator(constants or {})
    entries = enum.generate(sort, budget)
    # the terms are closed: the printer need not look for free names
    entries.sort(key=lambda e: (e[2], e[1], _print(e[0], None, frozenset())))
    return [NormalForm(t) for t, _, _ in entries], enum.exhaustive(sort, budget)


# ---------------------------------------------------------------------------
# The partial ultrametric on normal forms


@dataclass(frozen=True)
class DistCertificate:
    value: ExtReal
    status: str  # "exact" | "lower_bound"
    witness_budget: int
    failing_witness: Optional[tuple[Term, Term]] = None

    def to_json(self) -> dict:
        fw = None
        if self.failing_witness is not None:
            fw = [print_term(self.failing_witness[0]), print_term(self.failing_witness[1])]
        return {
            "value": self.value.render(),
            "status": self.status,
            "witness_budget": self.witness_budget,
            "failing_witness": fw,
        }


class DnfContext:
    """Shared memo tables (distances, witness applications) and witness
    cache for a batch of computations."""

    def __init__(
        self,
        witness_budget: int = 12,
        constants: Optional[Mapping[str, Sort]] = None,
    ):
        self.witness_budget = witness_budget
        self.constants = dict(constants or {})
        self._memo: dict = {}
        self._witnesses: dict = {}
        self._applied: dict = {}

    def witnesses(self, sort: Sort) -> tuple[list[NormalForm], bool]:
        hit = self._witnesses.get(sort)
        if hit is None:
            hit = enumerate_closed_nfs(sort, self.witness_budget, self.constants)
            self._witnesses[sort] = hit
        return hit

    def distance(self, t: NormalForm, s: NormalForm) -> DistCertificate:
        if t.sort != s.sort:
            raise SortError("distance requires equal sorts")
        level, exact, failing = self._entry(t, s)
        status = "exact" if exact else "lower_bound"
        return DistCertificate(_dyadic(level), status, self.witness_budget, failing)

    def _entry(self, t: NormalForm, s: NormalForm) -> tuple:
        """The memo entry (level, exact, failing witness) of t and s, with
        the distance 1/2^level (level inf for 0); t and s share a sort."""
        key = (t.term, s.term)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._memo[(s.term, t.term)] = self._compute(t, s)
        return hit

    def _apply(self, f: NormalForm, a: NormalForm) -> NormalForm:
        key = (f.term, a.term)
        hit = self._applied.get(key)
        if hit is None:
            hit = self._applied[key] = normalize(App(f.term, a.term))
        return hit

    def _compute(self, t: NormalForm, s: NormalForm) -> tuple:
        sort = t.sort
        if not isinstance(sort, ArrowSort):
            return (math.inf if t.term == s.term else 0), True, None

        witnesses, exhausted = self.witnesses(sort.dom)
        stabilize = max(nf_depth(t.term), nf_depth(s.term))
        level = agreement_level(t, s)
        # the first failing level by projection, and by a witness pair
        agree = math.inf if level is None else level + 1
        fail, failing, fail_certified = math.inf, None, False
        all_exact = True  # every output examined was exact
        # level 0 is vacuous (every distance is at most 1), so the witnesses
        # are read only when level 1 is reached
        if agree > 1 and stabilize > 0:
            for v, w in itertools.combinations_with_replacement(witnesses, 2):
                p, pair_exact, _ = self._entry(v, w)
                if p == 0:
                    continue
                # the pair fails level n when q < n <= p, with 1/2^q the
                # farther of the two sides' outputs
                q = math.inf
                for side in (t, s):
                    out, out_exact, _ = self._entry(self._apply(side, v), self._apply(side, w))
                    q = min(q, out)
                    if q == 0:
                        break
                    all_exact = all_exact and out_exact
                if q < p and q + 1 < fail:
                    fail, failing, fail_certified = q + 1, (v.term, w.term), pair_exact
                    if fail == 1:
                        break
        # a level from 1 on is certified when the witnesses are exhaustive and
        # every output examined is exact; ties go to agreement, then witnesses.
        # Level n is the first to fail: the value is 1/2^(n-1), 1 below.
        certified = exhausted and all_exact
        if agree <= min(fail, stabilize):
            return max(agree - 1, 0), agree <= 1 or certified, None
        if fail <= stabilize:
            return max(fail - 1, 0), fail_certified and (fail <= 1 or certified), failing
        return math.inf, stabilize == 0 or certified, None


def dnf_distance(
    t: NormalForm,
    s: NormalForm,
    witness_budget: int = 12,
    constants: Optional[Mapping[str, Sort]] = None,
) -> DistCertificate:
    """Partial ultrametric on normal forms, witness-bounded.

    Level n passes when the level-n projections agree and, for every
    witness pair within 1/2^n of each other, both inputs map the pair to
    outputs within 1/2^n.  The value is 1/2^m for the largest passing
    level (1 if none, 0 past stabilization).
    """
    return DnfContext(witness_budget, constants).distance(t, s)


# ---------------------------------------------------------------------------
# Order distance


@dataclass(frozen=True)
class OrderResult:
    comparable: bool
    join: Optional[NormalForm]

    def to_json(self) -> dict:
        return {
            "comparable": self.comparable,
            "join": print_term(self.join.term) if self.join else None,
        }


def _join(a: Term, b: Term) -> Optional[Term]:
    if a == b:
        return a
    if isinstance(a, Lam) and isinstance(b, Lam):
        body = _join(a.body, b.body)
        return None if body is None else Lam(a.hint, a.var_sort, body)
    if isinstance(a, Bottom):
        return b
    if isinstance(b, Bottom):
        return a
    ha, aa = _spine(a)
    hb, ab = _spine(b)
    if ha != hb or len(aa) != len(ab):
        return None
    joined = []
    for x, y in zip(aa, ab):
        j = _join(x, y)
        if j is None:
            return None
        joined.append(j)
    return app(ha, *joined)


def order_distance(t: NormalForm, s: NormalForm) -> tuple[ExtReal, OrderResult]:
    """0 on equality, 1/2 when a join exists, 1 otherwise."""
    if t.sort != s.sort:
        raise SortError("order_distance requires equal sorts")
    if t.term == s.term:
        return ZERO, OrderResult(True, t)
    j = _join(t.term, s.term)
    if j is None:
        return _dyadic(0), OrderResult(False, None)
    return _dyadic(1), OrderResult(True, NormalForm(j))


# ---------------------------------------------------------------------------
# Full type hierarchy distance


def fth_distance(
    t: NormalForm,
    s: NormalForm,
    n_max: int,
    *,
    size_budget: int = 10**6,
) -> tuple[ExtReal, str]:
    """1/N for the largest base size N at which the evaluations agree.

    The terms, closed, pure and over one base sort, are interpreted in
    the full type structure over the N-point discrete base, with
    element 0 interpreting bottom.  Status is "exact" once a
    distinguishing base size is found, and "bound_exhausted" when the
    terms still agree at n_max.
    """
    if t.sort != s.sort:
        raise SortError("fth_distance requires equal sorts")
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    if t.term == s.term:
        return ExtReal(0), "exact"
    nodes = [u for term in (t.term, s.term) for u in subterms(term)]
    if any(isinstance(u, (Var, Const)) for u in nodes):
        raise InterpretationError("full-type-hierarchy evaluation needs closed pure terms")
    # the carriers interpret() reads: binder sorts and argument sorts
    sorts = list(
        dict.fromkeys(
            u.var_sort if isinstance(u, Lam) else u.arg.sort
            for u in nodes
            if isinstance(u, (Lam, App))
        )
    )
    base_sort = sort_spine(t.sort)[1]
    for n in range(1, n_max + 1):
        # a discrete base makes every map non-expansive: the carriers are
        # the full function spaces
        base = FiniteMetricSpace(
            [str(i) for i in range(n)],
            [[int(i != j) for j in range(n)] for i in range(n)],
        )
        alg = build_full_type_structure(
            base,
            sorts,
            size_budget,
            base_sort,
            Signature(combinators=False),
            bottom=0,
        )
        if interpret(t.term, alg) != interpret(s.term, alg):
            if n == 1:
                return ExtReal(1), "exact"
            return ExtReal(Fraction(1, n - 1)), "exact"
    return ExtReal(Fraction(1, n_max)), "bound_exhausted"


# ---------------------------------------------------------------------------
# Approximate application


def approx_apply(t: NormalForm, s: NormalForm, n: int) -> NormalForm:
    """Apply the level-n projections and renormalize."""
    sort = t.sort
    if not isinstance(sort, ArrowSort) or sort.dom != s.sort:
        raise SortError("approx_apply requires matching arrow and argument sorts")
    return normalize(App(_project(t.term, n), _project(s.term, n)))
