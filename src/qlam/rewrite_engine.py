"""Beta/eta normalization, weak combinatory reduction and bracket
abstraction.

Typed terms are strongly normalizing, so no budget is needed there; the
untyped regime takes a mandatory step budget (default 10000).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import OutOfFuelError, PreconditionError, SortError
from .term_syntax import (
    _rebuild,
    _rewrap,
    _spine,
    _strip,
    App,
    ArrowSort,
    Bound,
    Const,
    Lam,
    STAR,
    Sort,
    Term,
    Var,
    app,
    combinator_sort,
    free_vars,
    sort_spine,
    subterms,
)

__all__ = [
    "DEFAULT_FUEL",
    "shift",
    "open_bound",
    "beta_normalize",
    "NormalForm",
    "normalize",
    "CLStep",
    "CLReduction",
    "cl_reduce",
    "bracket_abstract",
]

DEFAULT_FUEL = 10000


# ---------------------------------------------------------------------------
# Index plumbing


def shift(t: Term, d: int) -> Term:
    """Add d to every free index of t: one that points past the binders of t
    above it."""

    def leaf(u: Term, k: int) -> Term:
        if isinstance(u, Bound) and u.index >= k:
            return Bound(u.index + d, u.sort)
        return u

    return _rebuild(t, leaf)


def open_bound(body: Term, arg: Term) -> Term:
    """Substitute arg for index 0 in body, adjusting remaining indices."""

    def leaf(u: Term, k: int) -> Term:
        if not isinstance(u, Bound) or u.index < k:
            return u
        if u.index == k:
            return shift(arg, k) if k else arg
        return Bound(u.index - 1, u.sort)

    return _rebuild(body, leaf)


# ---------------------------------------------------------------------------
# Beta normalization


class _Budget:
    __slots__ = ("left",)

    def __init__(self, fuel: Optional[int]):
        self.left = fuel

    def spend(self) -> None:
        if self.left is None:
            return
        if self.left == 0:
            raise OutOfFuelError("step budget exhausted")
        self.left -= 1


def _nf(t: Term, budget: _Budget) -> Term:
    """Normal-order normal form over spines: contract the head redexes
    left to right, then normalize under the binder or each argument left
    to right.  A term with no redex comes back as itself."""
    head, args = _spine(t)
    contracted = isinstance(head, Lam) and bool(args)
    if contracted:
        rest = args[::-1]  # the arguments left, the next one last
        while isinstance(head, Lam) and rest:
            budget.spend()
            head, more = _spine(open_bound(head.body, rest.pop()))
            rest += reversed(more)
        args = rest[::-1]
    if isinstance(head, Lam):  # no arguments left
        body = _nf(head.body, budget)
        return head if body is head.body else Lam(head.hint, head.var_sort, body)
    normal = []
    for a in args:  # a loop, not a comprehension: one frame per nesting level
        normal.append(_nf(a, budget))
    if not contracted and all(a is b for a, b in zip(normal, args)):
        return t
    return app(head, *normal)


def beta_normalize(t: Term, fuel: Optional[int] = None) -> Term:
    """Reduce to beta-normal form in normal order.

    Untyped terms always get a budget (explicit or the default); typed
    terms run unbounded unless one is given.
    """
    if t.sort is STAR and fuel is None:
        fuel = DEFAULT_FUEL
    return _nf(t, _Budget(fuel))


# ---------------------------------------------------------------------------
# Eta-long forms


def _eta_long(t: Term) -> Term:
    """Eta-long expansion of a beta-normal typed term, as normalize makes
    it; the NormalForm that normalize builds re-checks the result."""

    def go(t: Term) -> Term:
        binders, core = _strip(t)
        head, args = _spine(core)
        extra, _ = sort_spine(core.sort)
        m = len(extra)
        if m:
            head = shift(head, m)
            args = [shift(a, m) for a in args]
            args += [Bound(m - 1 - i, extra[i]) for i in range(m)]
        binders += [(f"e{i}", dom) for i, dom in enumerate(extra)]
        return _rewrap(binders, app(head, *(go(a) for a in args)))

    return go(t)


@dataclass(frozen=True)
class NormalForm:
    """A term certified beta-normal (and eta-long when typed).

    The certificate is re-checked at construction time, both conditions
    in one walk on an explicit stack; beta is reported first.
    """

    term: Term

    def __post_init__(self) -> None:
        # every node taken from the stack is outside function position,
        # where eta-longness asks for a lambda at arrow sort
        eta_long = True
        stack = [self.term]
        while stack:
            t = stack.pop()
            while isinstance(t, Lam):
                t = t.body
            if isinstance(t.sort, ArrowSort):
                eta_long = False
            while isinstance(t, App):
                if isinstance(t.fn, Lam):
                    raise PreconditionError("term is not beta-normal")
                stack.append(t.arg)
                t = t.fn
        if not eta_long and self.term.sort is not STAR:
            raise PreconditionError("term is not eta-long")

    @property
    def sort(self) -> Sort:
        return self.term.sort


def normalize(t: Term, fuel: Optional[int] = None) -> NormalForm:
    """Canonical representative of t's beta-eta class."""
    t = beta_normalize(t, fuel)
    if t.sort is not STAR:
        t = _eta_long(t)
    return NormalForm(t)


# ---------------------------------------------------------------------------
# Combinatory reduction


@dataclass(frozen=True)
class CLStep:
    path: tuple[str, ...]
    rule: str
    redex: Term
    contractum: Term


@dataclass(frozen=True)
class CLReduction:
    start: Term
    result: Term
    steps: tuple[CLStep, ...]
    out_of_fuel: bool

    @property
    def step_count(self) -> int:
        return len(self.steps)


def _match_cl_redex(t: Term) -> Optional[tuple[str, Term]]:
    # a redex has at most three arguments, so look no deeper: taking the
    # whole spine at every node of a long one is quadratic in its length
    head, args = t, []
    while isinstance(head, App) and len(args) < 3:
        args.append(head.arg)
        head = head.fn
    if not isinstance(head, Const):
        return None
    args.reverse()
    if head.name == "I" and len(args) == 1:
        return "I", args[0]
    if head.name == "K" and len(args) == 2:
        return "K", args[0]
    if head.name == "S" and len(args) == 3:
        x, y, z = args
        return "S", App(App(x, z), App(y, z))
    return None


def _find_cl_redex(t: Term) -> Optional[tuple[tuple[str, ...], str, Term, Term]]:
    m = _match_cl_redex(t)
    if m is not None:
        return (), m[0], t, m[1]
    if not isinstance(t, App):
        return None
    # the path is built on the way back up, along the redex's branch only,
    # and not as one tuple per node visited
    direction, found = "fn", _find_cl_redex(t.fn)
    if found is None:
        direction, found = "arg", _find_cl_redex(t.arg)
    if found is None:
        return None
    path, rule, redex, contractum = found
    return (direction,) + path, rule, redex, contractum


def _replace_at(t: Term, path: tuple[str, ...], new: Term) -> Term:
    if not path:
        return new
    assert isinstance(t, App)
    if path[0] == "fn":
        return App(_replace_at(t.fn, path[1:], new), t.arg)
    return App(t.fn, _replace_at(t.arg, path[1:], new))


def cl_reduce(t: Term, fuel: Optional[int] = None) -> CLReduction:
    """Leftmost-outermost weak reduction of a combinatory term."""
    if any(isinstance(s, (Lam, Bound)) for s in subterms(t)):
        raise PreconditionError("cl_reduce takes pure combinatory terms")
    if fuel is None:
        fuel = DEFAULT_FUEL
    steps: list[CLStep] = []
    current = t
    out_of_fuel = False
    while True:
        found = _find_cl_redex(current)
        if found is None:
            break
        if len(steps) >= fuel:
            out_of_fuel = True
            break
        path, rule, redex, contractum = found
        steps.append(CLStep(path, rule, redex, contractum))
        current = _replace_at(current, path, contractum)
    return CLReduction(t, current, tuple(steps), out_of_fuel)


# ---------------------------------------------------------------------------
# Bracket abstraction


def bracket_abstract(x: Var, t: Term) -> Term:
    """Abstraction Lambda x(t) built from I, K and S.

    The result contains no occurrence of x and simulates substitution
    under cl_reduce.
    """
    if any(isinstance(s, (Lam, Bound)) for s in subterms(t)):
        raise PreconditionError("bracket_abstract takes pure combinatory terms")
    # combinator_sort serves both regimes, and a mix of the two raises
    # SortError
    i = x.sort

    def lam_x(t: Term) -> Term:
        if t == x:
            return Const("I", combinator_sort("I", i))
        if x.name not in free_vars(t):
            return App(Const("K", combinator_sort("K", t.sort, i)), t)
        if isinstance(t, Var) and t.name == x.name:
            raise SortError(f"variable {x.name} occurs at two sorts")
        assert isinstance(t, App)
        left = lam_x(t.fn)
        right = lam_x(t.arg)
        s_sort = combinator_sort("S", i, t.arg.sort, t.sort)
        return App(App(Const("S", s_sort), left), right)

    return lam_x(t)
