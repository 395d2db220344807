"""Quantitative equations, theories and checkable derivation trees.

A derivation is a tree of rule nodes.  Structural rules (Symm, Triang,
Max, NExp, the lambda rules, ...) appear as leaves whose conclusion is a
literal instance of the rule schema, of the shape hypotheses |- equation.
Composition happens through Cut; Subst is the only other node with
premises.  Checking is purely local per node, which keeps every side
condition decidable and every failure attributable to one node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import PreconditionError, SortError, StructuralError
from .rewrite_engine import _match_cl_redex, CLReduction, CLStep, open_bound, shift
from .term_syntax import (
    _entry_at,
    _fields_hash,
    _json_field,
    _leaf_from_json,
    _print,
    _sort_from_json,
    _spine,
    _substituter,
    _TermTable,
    _terms_from_json,
    _typecheck,
    App,
    Bound,
    COMBINATORS,
    Const,
    Lam,
    STAR,
    Signature,
    Sort,
    Term,
    Var,
    app,
    bind,
    bound_hints,
    combinator_sort,
    free_vars,
    render_sort,
    subterms,
)

__all__ = [
    "QuantEquation",
    "Inference",
    "Theory",
    "Derivation",
    "CheckResult",
    "check_derivation",
    "builtin_theory",
    "interval_constant_name",
    "derive_cl_reduction",
    "derive_equal_reducts",
    "derivation_to_json",
    "derivation_from_json",
    "d_refl",
    "d_axiom",
    "d_subst",
    "d_cut",
]

VarSet = frozenset  # of Var


def _frac(value) -> Fraction:
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f < 0:
        raise StructuralError("epsilon must be non-negative")
    return f


@dataclass(frozen=True)
class QuantEquation:
    left: Term
    right: Term
    eps: Fraction
    sort: Sort
    quantified: frozenset = frozenset()  # of Var

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", _frac(self.eps))
        if self.left.sort != self.sort or self.right.sort != self.sort:
            raise StructuralError("equation sides do not live at the stated sort")
        for v in self.quantified:
            if not isinstance(v, Var):
                raise StructuralError("quantified set must contain variables")

    # equations key the frozensets that derive and check build and
    # compare, and the field hash would re-hash the Fraction eps each time
    __hash__ = _fields_hash

    def names(self) -> set[str]:
        return {v.name for v in self.quantified}


@dataclass(frozen=True)
class Inference:
    hypotheses: frozenset  # of QuantEquation
    conclusion: QuantEquation

    def to_json(self) -> dict:
        """The inference document {"terms": [...], "equations": [...],
        "hyps": [...], "eq": e}, whose tables are those of a derivation
        document; hyps and eq are indices into equations."""
        writer = _Writer()
        hyps, eq = writer.inference(self)
        tables = {"terms": writer.table.records, "equations": writer.equations}
        return {**tables, "hyps": hyps, "eq": eq}

    @classmethod
    def from_json(cls, data: dict) -> "Inference":
        return _inference_from_json(data, _document_tables(data)[1])


@dataclass
class Theory:
    """A quantitative theory as plain data: a stock theory name over a
    signature, the values of its interval constants, the graphs of its
    table constants and the partiality flag.  builtin_theory builds one
    and derives the axioms and regime flags once; to_json/from_json write
    and read exactly the data.

    An Axiom node is accepted when it is a listed axiom, or, in an
    interval theory, when it is an interval closeness axiom c ~eps c'
    with eps >= |value(c) - value(c')|.  An instance of a listed axiom
    is a Subst node over it.
    """

    name: str
    signature: Signature
    interval_values: dict = field(default_factory=dict)  # constant name -> Fraction
    tables: dict = field(default_factory=dict)  # constant name -> {argument values: result}
    partial: bool = False
    axioms: tuple = field(default=(), repr=False)
    is_lambda: bool = False
    has_eta: bool = False

    def to_json(self) -> dict:
        sig = self.signature
        return {
            "name": self.name,
            "signature": {
                "untyped": sig.untyped,
                "combinators": sig.combinators,
                "constants": {n: render_sort(s) for n, s in sig.constants.items()},
                "combinator_sorts": [
                    [render_sort(s) for s in triple] for triple in sig.combinator_sorts
                ],
            },
            "interval_values": {n: str(v) for n, v in self.interval_values.items()},
            "tables": {
                fname: [[[str(a) for a in args], str(result)] for args, result in graph.items()]
                for fname, graph in self.tables.items()
            },
            "partial": self.partial,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Theory":
        """Read what to_json writes; fields other than name and signature
        may be left out for their defaults.  Every malformed shape is a
        StructuralError; the content is validated by builtin_theory."""
        sig = _json_field(data, "signature", dict)
        table: dict = {}
        triples = []
        for triple in _json_field(sig, "combinator_sorts", list, []):
            if not isinstance(triple, list) or len(triple) != 3:
                raise StructuralError("bad JSON: a combinator sort entry must list three sorts")
            triples.append(tuple(_sort_from_json(s, table) for s in triple))
        signature = Signature(
            untyped=_json_field(sig, "untyped", bool, False),
            constants={
                n: _sort_from_json(s, table)
                for n, s in _json_field(sig, "constants", dict, {}).items()
            },
            combinators=_json_field(sig, "combinators", bool, True),
            combinator_sorts=tuple(triples),
        )
        tables: dict = {}
        for fname, rows in _json_field(data, "tables", dict, {}).items():
            shape = f"bad JSON: table {fname!r} must be a list of [[arguments...], result] rows"
            if not isinstance(rows, list):
                raise StructuralError(shape)
            graph = tables[fname] = {}
            for row in rows:
                if not (isinstance(row, list) and len(row) == 2 and isinstance(row[0], list)):
                    raise StructuralError(shape)
                args = tuple(_fraction_from_json(a, "table value") for a in row[0])
                graph[args] = _fraction_from_json(row[1], "table value")
        return builtin_theory(
            _json_field(data, "name"),
            signature,
            interval_values={
                n: _fraction_from_json(v, "interval value")
                for n, v in _json_field(data, "interval_values", dict, {}).items()
            },
            tables=tables,
            partial=_json_field(data, "partial", bool, False),
        )


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Inference
    premises: tuple = ()
    params: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    path: Optional[tuple[int, ...]] = None
    reason: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "path": list(self.path) if self.path is not None else None,
            "reason": self.reason,
        }


# ---------------------------------------------------------------------------
# Node-local rule checks


def _subst_eq(eq: QuantEquation, sub: Callable[[Term], Term]) -> QuantEquation:
    return QuantEquation(sub(eq.left), sub(eq.right), eq.eps, eq.sort, eq.quantified)


_LAMBDA_RULES = frozenset({"Alpha", "Xi", "Beta", "Eta", "Abstraction", "Concretion"})
_LEAF_RULES = _LAMBDA_RULES | {"Assumpt", "Refl", "PRefl", "Symm", "Triang", "Max", "NExp", "Axiom"}


class _RuleChecks:
    """The node checks of one check_derivation call: check runs the checks
    all rules share, then the method named after the node's rule in lower
    case.  Each returns the first failure's reason, or None.  The checks of
    the CL rules compare the node with the rule's pattern and build no term
    or equation."""

    def __init__(self, th: Theory) -> None:
        self.th = th
        self.listed: set[tuple] = set()  # the keys of Axiom nodes found listed
        self.clean: set[int] = set()  # ids of Subst images without stray indices

    def check(self, node: Derivation) -> Optional[str]:
        rule, eq, hyps = node.rule, node.conclusion.conclusion, node.conclusion.hypotheses
        if not self.th.is_lambda:
            if rule in _LAMBDA_RULES:
                return f"{rule} requires a lambda theory"
            if eq.quantified or hyps and any(h.quantified for h in hyps):
                return "quantified variables need a lambda theory"
        if rule in _LEAF_RULES and node.premises:
            return f"{rule} is a leaf schema and takes no premises"
        method = _RULE_METHODS.get(rule)
        if method is None:
            return f"unknown rule {rule!r}"
        return method(self, node, eq, hyps)

    def assumpt(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if eq not in hyps:
            return "Assumpt conclusion is not among the hypotheses"
        return None

    def refl(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if hyps:
            return "Refl takes no hypotheses"
        if eq.eps != 0:
            return "Refl requires epsilon 0"
        if eq.left != eq.right:
            return "Refl requires identical sides"
        return None

    def prefl(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if not self.th.partial:
            return "PRefl is only available in partial theories"
        if len(hyps) != 1:
            return "PRefl takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.eps != eq.eps or h.quantified != eq.quantified:
            return "PRefl conclusion must be t ~ t at the hypothesis epsilon"
        if eq.left != eq.right:
            return "PRefl requires identical sides"
        return None

    def symm(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if len(hyps) != 1:
            return "Symm takes exactly one hypothesis"
        (h,) = hyps
        if (h.left, h.right, h.eps, h.quantified) != (eq.right, eq.left, eq.eps, eq.quantified):
            return "Symm conclusion must flip the hypothesis"
        return None

    def triang(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        hs = tuple(hyps)
        # the hypotheses in either order; a lone one is both t~s and s~u
        for h1, h2 in ((hs[0], hs[-1]), (hs[-1], hs[0])) if len(hs) in (1, 2) else ():
            if (h1.left, h2.right, h1.right, h1.quantified, h2.quantified) == (
                eq.left, eq.right, h2.left, eq.quantified, eq.quantified
            ) and (h2.eps if h1.eps == 0 else h1.eps + h2.eps) == eq.eps:
                return None
        return "Triang requires hypotheses t~s, s~u with epsilons summing exactly"

    def max(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if len(hyps) != 1:
            return "Max takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.right != eq.right or h.quantified != eq.quantified:
            return "Max must keep the equation sides"
        if eq.eps < h.eps:
            return "Max can only increase epsilon"
        return None

    def nexp(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        l, r = eq.left, eq.right
        if isinstance(l, Lam) or isinstance(r, Lam):
            return "NExp does not apply to binder symbols"
        if isinstance(l, App) and isinstance(r, App):
            # one hypothesis per distinct component pair, at eq's epsilon and X
            parts = ((l.fn, r.fn), (l.arg, r.arg))
            if len(hyps) != 2 - (parts[0] == parts[1]) or not all(
                (h.left, h.right) in parts and (h.eps, h.quantified) == (eq.eps, eq.quantified)
                for h in hyps
            ):
                return "NExp hypotheses must equate the components at the same epsilon"
            return None
        if isinstance(l, Const) and l == r:
            if hyps:
                return "NExp on a constant takes no hypotheses"
            return None
        return "NExp applies to applications and constants"

    def alpha(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if hyps:
            return "Alpha takes no hypotheses"
        if eq.eps != 0:
            return "Alpha requires epsilon 0"
        if not isinstance(eq.left, Lam):
            return "Alpha applies to abstractions"
        if eq.left != eq.right:
            return "Alpha requires alpha-equivalent sides"
        return None

    def xi(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if len(hyps) != 1:
            return "Xi takes exactly one hypothesis"
        (h,) = hyps
        if not (isinstance(eq.left, Lam) and isinstance(eq.right, Lam)):
            return "Xi concludes between abstractions"
        name = node.params.get("var")
        if name is None:
            return "Xi needs the abstracted variable in params"
        var = Var(name, eq.left.var_sort)
        if var not in eq.quantified:
            return "ξ requires x ∈ X"
        if h.eps != eq.eps or h.quantified != eq.quantified:
            return "Xi keeps epsilon and the quantified set"
        try:
            want = (bind(name, var.sort, h.left), bind(name, var.sort, h.right))
        except SortError:  # a namesake of var at another sort
            want = None
        if want != (eq.left, eq.right):
            return "Xi conclusion must abstract the hypothesis sides"
        return None

    def beta(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if hyps:
            return "Beta takes no hypotheses"
        if eq.eps != 0:
            return "Beta requires epsilon 0"
        if not (isinstance(eq.left, App) and isinstance(eq.left.fn, Lam)):
            return "Beta left side must be a redex"
        lam, u = eq.left.fn, eq.left.arg
        if set(free_vars(u)) & bound_hints(lam.body):
            return "β hygiene violated"
        if eq.right != open_bound(lam.body, u):
            return "Beta right side must be the contractum"
        return None

    def eta(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if not self.th.has_eta:
            return "Eta is only available in extensional theories"
        if hyps:
            return "Eta takes no hypotheses"
        if eq.eps != 0:
            return "Eta requires epsilon 0"
        r = eq.right
        if not (
            isinstance(r, Lam)
            and isinstance(r.body, App)
            and r.body.arg == Bound(0, r.var_sort)
            and r.body.fn == shift(eq.left, 1)
        ):
            return "Eta right side must be the expansion of the left"
        return None

    def abstraction(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if len(hyps) != 1:
            return "Abstraction takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.right != eq.right or h.eps != eq.eps:
            return "Abstraction must keep the equation"
        if not h.quantified <= eq.quantified:
            return "Abstraction can only grow the quantified set"
        fv = set(free_vars(eq.left)) | set(free_vars(eq.right))
        if fv & eq.names():
            return "Abstraction requires the sides to avoid the quantified set"
        return None

    def concretion(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if len(hyps) != 1:
            return "Concretion takes exactly one hypothesis"
        (h,) = hyps
        if h.left != eq.left or h.right != eq.right or h.eps != eq.eps:
            return "Concretion must keep the equation"
        if not eq.quantified <= h.quantified:
            return "Concretion can only shrink the quantified set"
        return None

    def axiom(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        key = (id(eq), hyps)  # eq is kept alive by the checked derivation
        if key in self.listed or node.conclusion in self.th.axioms:
            self.listed.add(key)
            return None
        # an interval closeness axiom; both sides live at eq.sort
        l, r = eq.left, eq.right
        values = self.th.interval_values
        if (
            not hyps
            and not eq.quantified
            and isinstance(l, Const)
            and isinstance(r, Const)
            and l.name in values
            and r.name in values
            and eq.eps >= abs(values[l.name] - values[r.name])
        ):
            return None
        return "Axiom node matches no theory axiom or schema"

    def cut(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if not node.premises:
            return "Cut needs at least the main premise"
        *sides, main = node.premises
        if main.conclusion.conclusion is not eq and main.conclusion.conclusion != eq:
            return "Cut conclusion must come from the main premise"
        if main.conclusion.hypotheses != frozenset(p.conclusion.conclusion for p in sides):
            return "Cut side premises must prove the main premise's hypotheses"
        for p in sides:
            if p.conclusion.hypotheses != hyps:
                return "Cut side premises must share the conclusion's hypotheses"
        return None

    def subst(self, node: Derivation, eq: QuantEquation, hyps: frozenset) -> Optional[str]:
        if len(node.premises) != 1:
            return "Subst takes exactly one premise"
        (p,) = node.premises
        env = node.params.get("env")
        if env is None:
            return "Subst needs a substitution in params"
        if not isinstance(env, dict) or not all(isinstance(t, Term) for t in env.values()):
            return "Subst substitution must map names to terms"
        peq, phyps = p.conclusion.conclusion, p.conclusion.hypotheses
        if self.th.is_lambda:
            if set(env) & peq.names():
                return "Subst must be the identity on the quantified set"
            bd = bound_hints(peq.left) | bound_hints(peq.right)
            for h in phyps:
                bd |= bound_hints(h.left) | bound_hints(h.right)
            for image in env.values():
                if set(free_vars(image)) & bd:
                    return "Subst hygiene violated"
        for name, image in env.items():
            if id(image) not in self.clean:
                stack = [(image, 0)]
                while stack:
                    t, k = stack.pop()
                    if type(t) is App:
                        stack += ((t.fn, k), (t.arg, k))
                    elif type(t) is Lam:
                        stack.append((t.body, k + 1))
                    elif type(t) is Bound and t.index >= k:
                        return f"Subst substitution is malformed: substitution image for {name} has stray indices"
                self.clean.add(id(image))
        # each premise side against the conclusion's, left first, function
        # before argument, up to the first disagreement
        same, todo = True, [(peq.right, eq.right), (peq.left, eq.left)]
        while same and todo:
            a, b = todo.pop()
            kind = type(a)
            if kind is App or kind is Lam:
                same = type(b) is kind and (kind is App or b.var_sort == a.var_sort)
                if same:
                    todo += ((a.arg, b.arg), (a.fn, b.fn)) if kind is App else ((a.body, b.body),)
            elif kind is Var and a.name in env:
                image = env[a.name]
                same = (image.sort is a.sort or image.sort == a.sort) and (b is image or b == image)
            else:
                same = b is a or b == a
        # an image of another sort, in the premise's sides or hypotheses, is
        # reported first; the sides fix the sort, hypotheses are compared as a set
        if not same or phyps:
            for side in (peq.left, peq.right, *(t for h in phyps for t in (h.left, h.right))):
                for v in subterms(side):
                    if type(v) is Var and v.name in env and env[v.name].sort != v.sort:
                        return (
                            f"Subst substitution is malformed: substitution for {v.name} has sort "
                            f"{render_sort(env[v.name].sort)}, expected {render_sort(v.sort)}"
                        )
        sub = _substituter(env) if same and phyps else None
        same = same and (hyps == frozenset(_subst_eq(h, sub) for h in phyps) if phyps else not hyps)
        if not same or (eq.eps, eq.quantified) != (peq.eps, peq.quantified):
            return "Subst conclusion must be the substituted premise"
        return None


_RULE_METHODS = {rule: getattr(_RuleChecks, rule.lower()) for rule in _LEAF_RULES | {"Cut", "Subst"}}


def check_derivation(d: Derivation, th: Theory) -> CheckResult:
    """Check every node against its rule schema; locate the first failure.

    Each node, equation and equation side object is checked once, at its
    first visit in depth-first order: by a node's next visit its whole
    subtree has passed.  Sides are typechecked against th.signature
    through one set of the terms already checked, so each distinct term is
    checked once however often the derivation repeats it (typechecking
    ignores binder hints, so terms are kept by value).  The walk keeps its
    own stack: a recursive closure would sit in a reference cycle and keep
    the sets alive after the call, until the collector next reached them.
    """
    checked: set[Term] = set()
    done: set[int] = set()  # ids of the objects checked, which d keeps alive
    rules, sig = _RuleChecks(th), th.signature
    # a node's path is kept as (last index, parent's path), () at the root,
    # so pushing a premise costs the same at any depth
    stack: list[tuple[Derivation, tuple]] = [(d, ())]
    while stack:  # depth first, premises in order
        node, path = stack.pop()
        if id(node) in done:
            continue
        done.add(id(node))
        inf = node.conclusion
        for eq in (*inf.hypotheses, inf.conclusion):
            if id(eq) in done:
                continue
            try:
                for side in (eq.left, eq.right):
                    # of a side equal to one checked, only its root's regime is left
                    if id(side) not in done and (side not in checked or (side.sort is STAR) != sig.untyped):
                        _typecheck(side, sig, checked)
                    done.add(id(side))
            except Exception as exc:
                return CheckResult(False, _unwind(path), f"ill-typed equation: {exc}")
            done.add(id(eq))
        reason = rules.check(node)
        if reason is not None:
            return CheckResult(False, _unwind(path), reason)
        if node.premises:
            stack += reversed([(p, (i, path)) for i, p in enumerate(node.premises)])
    return CheckResult(True)


def _unwind(path: tuple) -> tuple[int, ...]:
    out = []
    while path:
        i, path = path
        out.append(i)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# Builtin theories


def interval_constant_name(value: Fraction) -> str:
    v = Fraction(value)
    text = f"{v.numerator}_{v.denominator}" if v.denominator != 1 else str(v.numerator)
    return "k" + text.replace("-", "m")


def _cl_axioms(triples: Sequence[tuple[Sort, Sort, Sort]]) -> list[Inference]:
    """I x ~0 x, K x y ~0 x and S z y x ~0 z x (y x) at each instance
    (i, j, k), each left side once: the head applied to its variables,
    and the contractum that weak reduction gives it."""
    axioms: list[Inference] = []
    seen = set()
    for triple in triples:
        for name, variables in zip(COMBINATORS, ("x", "xy", "zyx")):
            left = Const(name, combinator_sort(name, *triple))
            for v in variables:
                left = App(left, Var(v, left.sort if left.sort is STAR else left.sort.dom))
            if left not in seen:
                seen.add(left)
                _, right = _match_cl_redex(left)
                eq = QuantEquation(left, right, Fraction(0), left.sort)
                axioms.append(Inference(frozenset(), eq))
    return axioms


_THEORY_NAMES = (
    "U_CL",
    "U_CL_interval",
    "U_lambda",
    "U_lambda_eta",
    "U_lambda_interval",
    "U_lambda_eta_interval",
)


def builtin_theory(
    name: str,
    sig: Signature,
    interval_values: Optional[Mapping[str, Fraction]] = None,
    tables: Optional[Mapping[str, Mapping[tuple, Fraction]]] = None,
    partial: bool = False,
) -> Theory:
    """Assemble one of the stock theories over the given signature.

    interval_values maps declared interval constants to their numeric
    values; tables maps a function constant to its graph, each entry
    sending a tuple of argument values to the result value (all values
    must have declared constants).  Only the interval theories take
    either.  The CL axioms come from sig.combinator_sorts (typed) or the
    single sort (untyped), one table axiom from each graph entry.
    """
    if name not in _THEORY_NAMES:
        raise PreconditionError(f"unknown builtin theory {name}")
    values = {n: Fraction(v) for n, v in (interval_values or {}).items()}
    graphs = {
        fname: {tuple(Fraction(a) for a in args): Fraction(r) for args, r in graph.items()}
        for fname, graph in (tables or {}).items()
    }
    if not name.endswith("_interval") and (values or graphs):
        raise PreconditionError(f"{name} takes no interval values or tables")
    for cname in values:
        if cname not in sig.constants:
            raise PreconditionError(f"interval value for undeclared constant {cname}")
    axioms: list[Inference] = []
    if name in ("U_CL", "U_CL_interval"):
        axioms += _cl_axioms([(STAR, STAR, STAR)] if sig.untyped else sig.combinator_sorts)
    by_value = {v: Const(k, sig.constants[k]) for k, v in values.items()}

    def grid_const(value: Fraction) -> Const:
        if value not in by_value:
            raise PreconditionError(f"no constant for grid value {value}")
        return by_value[value]

    for fname, graph in graphs.items():
        fsort = sig.constants.get(fname)
        if fsort is None:
            raise PreconditionError(f"table for undeclared constant {fname}")
        for args, result in graph.items():
            term = app(Const(fname, fsort), *map(grid_const, args))
            eq = QuantEquation(term, grid_const(result), Fraction(0), term.sort)
            axioms.append(Inference(frozenset(), eq))
    return Theory(
        name=name,
        signature=sig,
        interval_values=values,
        tables=graphs,
        partial=partial,
        axioms=tuple(axioms),
        is_lambda=name.startswith("U_lambda"),
        has_eta="eta" in name,
    )


# ---------------------------------------------------------------------------
# Derivation builders


def d_refl(t: Term, quantified: frozenset = frozenset()) -> Derivation:
    eq = QuantEquation(t, t, Fraction(0), t.sort, quantified)
    return Derivation("Refl", Inference(frozenset(), eq))


def d_axiom(inf: Inference) -> Derivation:
    return Derivation("Axiom", inf)


def d_subst(premise: Derivation, env: Mapping[str, Term]) -> Derivation:
    pinf = premise.conclusion
    sub = _substituter(env)
    inf = Inference(
        frozenset(_subst_eq(h, sub) for h in pinf.hypotheses),
        _subst_eq(pinf.conclusion, sub),
    )
    return Derivation("Subst", inf, (premise,), {"env": dict(env)})


def d_cut(sides: Sequence[Derivation], main: Derivation) -> Derivation:
    hyps = sides[0].conclusion.hypotheses if sides else frozenset()
    inf = Inference(hyps, main.conclusion.conclusion)
    return Derivation("Cut", inf, tuple(sides) + (main,))


def _d_symm(premise: Derivation) -> Derivation:
    eq = premise.conclusion.conclusion
    flipped = QuantEquation(eq.right, eq.left, eq.eps, eq.sort, eq.quantified)
    leaf = Derivation("Symm", Inference(frozenset({eq}), flipped))
    return d_cut([premise], leaf)


def _d_triang(p1: Derivation, p2: Derivation) -> Derivation:
    e1 = p1.conclusion.conclusion
    e2 = p2.conclusion.conclusion
    out = QuantEquation(e1.left, e2.right, e1.eps + e2.eps, e1.sort, e1.quantified)
    leaf = Derivation("Triang", Inference(frozenset({e1, e2}), out))
    return d_cut([p1, p2], leaf)


def _d_app(p_fn: Derivation, p_arg: Derivation) -> Derivation:
    ef = p_fn.conclusion.conclusion
    ea = p_arg.conclusion.conclusion
    left = App(ef.left, ea.left)
    out = QuantEquation(left, App(ef.right, ea.right), ef.eps, left.sort, ef.quantified)
    leaf = Derivation("NExp", Inference(frozenset({ef, ea}), out))
    return d_cut([p_fn, p_arg], leaf)


@functools.lru_cache(maxsize=8)
def _cl_axiom_index(axioms: tuple) -> dict[Term, tuple[Derivation, tuple[str, ...]]]:
    """A theory's CL axioms, built once per axioms tuple, by head constant,
    each as its Axiom leaf and its variables' names: an axiom without
    hypotheses whose left side is I, K or S applied to distinct variables
    and whose right side, at distance 0, is the contractum weak reduction
    gives it.  Callers only read the shared dict."""
    index: dict[Term, tuple[Derivation, tuple[str, ...]]] = {}
    for ax in axioms:
        left = ax.conclusion.left
        head, args = _spine(left)
        names = tuple(v.name for v in args if isinstance(v, Var))
        match = _match_cl_redex(left)
        if match is None or len(set(names)) != len(args):
            continue
        if ax == Inference(frozenset(), QuantEquation(left, match[1], Fraction(0), left.sort)):
            index.setdefault(head, (d_axiom(ax), names))
    return index


def _axiom_for_step(step: CLStep, axioms: Mapping[Term, tuple]) -> Derivation:
    """The Subst instance of the step's CL axiom: redex ~0 contractum, with
    the redex's arguments for the axiom's variables."""
    head, args = _spine(step.redex)
    if head not in axioms:
        raise PreconditionError(f"theory has no {step.rule} axiom at the needed sorts")
    axiom, names = axioms[head]
    eq = QuantEquation(step.redex, step.contractum, Fraction(0), step.redex.sort)
    env = dict(zip(names, args))
    return Derivation("Subst", Inference(frozenset(), eq), (axiom,), {"env": env})


def derive_cl_reduction(red: CLReduction, th: Theory) -> Derivation:
    """Proof of start ~0 result replaying a combinatory reduction trace: a
    root step is its axiom instance, a maximal run of steps below the root
    one NExp over its function and argument parts, and Triang joins them."""
    if red.out_of_fuel:
        raise PreconditionError("cannot derive an unfinished reduction")
    steps, axioms = red.steps, _cl_axiom_index(th.axioms)
    # a frame (term, i, end, depth, proof, run) replays steps[i:end] from term,
    # which their paths pass at depth; run ends the run whose parts are on done
    stack: list[tuple] = [(red.start, 0, len(steps), 0, None, None)]
    done: list[Derivation] = []
    while stack:
        term, i, end, depth, proof, run = stack.pop()
        if run is not None:
            piece, i = _d_app(done.pop(-2), done.pop()), run
        elif i == end:
            done.append(d_refl(term) if proof is None else proof)
            continue
        elif len(steps[i].path) == depth:
            piece, i = _axiom_for_step(steps[i], axioms), i + 1
        else:
            assert isinstance(term, App)
            mid = i
            while mid < end and len(steps[mid].path) > depth and steps[mid].path[depth] == "fn":
                mid += 1
            run = mid
            while run < end and len(steps[run].path) > depth and steps[run].path[depth] == "arg":
                run += 1
            stack += [(term, i, end, depth, proof, run), (term.arg, mid, run, depth + 1, None, None),
                      (term.fn, i, mid, depth + 1, None, None)]
            continue
        proof = piece if proof is None else _d_triang(proof, piece)
        stack.append((piece.conclusion.conclusion.right, i, end, depth, proof, None))
    return done[0]


def derive_equal_reducts(r1: CLReduction, r2: CLReduction, th: Theory) -> Derivation:
    """Proof of r1.start ~0 r2.start when both reduce to the same term."""
    if r1.result != r2.result:
        raise PreconditionError("the reductions do not meet")
    d1 = derive_cl_reduction(r1, th)
    d2 = derive_cl_reduction(r2, th)
    if r2.steps:
        return _d_triang(d1, _d_symm(d2)) if r1.steps else _d_symm(d2)
    return d1


# ---------------------------------------------------------------------------
# JSON


def derivation_to_json(d: Derivation) -> dict:
    """The derivation document {"terms": [...], "equations": [...],
    "proof": [...]}.

    terms lists each structurally distinct term node once, children before
    parents; equations lists each distinct equation record once, its sides
    indices into terms; proof lists the rule nodes in postorder, one entry
    per node, the root last, each naming its equations by index into
    equations and its premises by index of an earlier proof entry.  The
    text depends only on d's value, binder hints included.
    """
    writer = _Writer()
    proof = writer.derivation(d)
    return {"terms": writer.table.records, "equations": writer.equations, "proof": proof}


def derivation_from_json(data: dict) -> Derivation:
    """Decode a derivation document in one forward pass over each table;
    every malformed shape is a StructuralError.

    Equal subterms with equal binder hints come back as one object, and
    each equation record is decoded once, to one object.
    """
    terms, equations = _document_tables(data)
    nodes: list[Derivation] = []
    for entry in _json_field(data, "proof", list):
        params = dict(_json_field(entry, "params", dict, {}))
        if "env" in params:
            env = _json_field(params, "env", dict)
            params["env"] = {name: _entry_at(terms, i) for name, i in env.items()}
        premises = _json_field(entry, "premises", list, [])
        nodes.append(
            Derivation(
                _json_field(entry, "rule"),
                _inference_from_json(entry, equations),
                tuple(_entry_at(nodes, i, "proof") for i in premises),
                params,
            )
        )
    if not nodes:
        raise StructuralError("bad JSON: proof has no entries")
    return nodes[-1]


class _Writer:
    """The encoder of one document: its term table, its equation table and
    the printed text of each binder-free side node.  Equation records are
    keyed by content, as term records are, and each equation object's
    index and each node's text are also kept by identity; every object
    kept by identity belongs to the value being written, so the ids stay
    valid while it is written."""

    def __init__(self) -> None:
        self.table = _TermTable()
        self.equations: list[dict] = []
        self._keys: dict[tuple, int] = {}
        self._ids: dict[int, int] = {}
        self._texts: dict[int, str] = {}  # the printer's texts of side nodes

    def derivation(self, d: Derivation) -> list[dict]:
        """The proof table of d: each node's entry after its premises'."""
        # a preorder that takes the premises last to first, reversed, is
        # the postorder that takes them first to last
        order = []
        stack = [d]
        while stack:
            node = stack.pop()
            order.append(node)
            stack += node.premises
        proof: list[dict] = []
        done: list[int] = []  # entries of finished subtrees still to be claimed
        for node in reversed(order):
            params = dict(node.params)
            if "env" in params:
                params["env"] = {name: self.table.index(t) for name, t in params["env"].items()}
            hyps, eq = self.inference(node.conclusion)
            first = len(done) - len(node.premises)
            premises = done[first:]
            del done[first:]
            done.append(len(proof))
            proof.append(
                {"rule": node.rule, "params": params, "hyps": hyps, "eq": eq, "premises": premises}
            )
        return proof

    def inference(self, inf: Inference) -> tuple[list[int], int]:
        hyps = inf.hypotheses
        if len(hyps) > 1:
            hyps = sorted(hyps, key=self._order)
        return [self.equation(h) for h in hyps], self.equation(inf.conclusion)

    def equation(self, eq: QuantEquation) -> int:
        i = self._ids.get(id(eq))
        if i is None:
            left, right = self.table.index(eq.left), self.table.index(eq.right)
            xs = sorted((v.name, render_sort(v.sort)) for v in eq.quantified)
            key = (left, right, str(eq.eps), render_sort(eq.sort), *xs)
            i = self._ids[id(eq)] = self._keys.setdefault(key, len(self.equations))
            if i == len(self.equations):
                xs = [{"name": name, "sort": sort} for name, sort in xs]
                self.equations.append(
                    {"left": left, "right": right, "eps": key[2], "sort": key[3], "X": xs}
                )
        return i

    def _order(self, eq: QuantEquation) -> tuple[str, str, str]:
        """The order of hypotheses in a document, a function of their
        values: eps, then the printed sides."""
        return (str(eq.eps), _print(eq.left, self._texts), _print(eq.right, self._texts))


def _fraction_from_json(value, what: str) -> Fraction:
    """A Fraction string or an integer (never a float or a bool)."""
    if isinstance(value, (str, int)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise StructuralError(f"bad JSON: {what} {value!r} is not a fraction")


def _eps_from_json(value, table: dict) -> Fraction:
    key = ("eps", value)
    eps = table.get(key)
    if eps is None:
        eps = table[key] = _fraction_from_json(value, "epsilon")
    return eps


def _document_tables(data) -> tuple[list[Term], list[QuantEquation]]:
    """The decoded term and equation tables of a document, one forward
    pass each; the equations share the term decoder's table of leaves."""
    table: dict = {}
    terms = _terms_from_json(data, table)
    records = _json_field(data, "equations", list)
    return terms, [_equation_from_json(rec, terms, table) for rec in records]


def _equation_from_json(data: dict, terms: list[Term], table: dict) -> QuantEquation:
    left = _entry_at(terms, _json_field(data, "left", object))
    right = _entry_at(terms, _json_field(data, "right", object))
    xs = frozenset(
        _leaf_from_json("var", _json_field(v, "name"), _json_field(v, "sort"), table)
        for v in _json_field(data, "X", list, [])
    )
    eps = _eps_from_json(_json_field(data, "eps", (str, int)), table)
    return QuantEquation(left, right, eps, _sort_from_json(_json_field(data, "sort"), table), xs)


def _inference_from_json(data: dict, equations: list[QuantEquation]) -> Inference:
    """The inference whose hyps and eq are indices into equations."""
    return Inference(
        frozenset(
            _entry_at(equations, i, "equation") for i in _json_field(data, "hyps", list, [])
        ),
        _entry_at(equations, _json_field(data, "eq", object), "equation"),
    )
