import dataclasses
import itertools
import sys
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlam.errors import ParseError, SortError, StructuralError
from qlam.term_syntax import (
    _print,
    _typecheck,
    App,
    ArrowSort,
    BaseSort,
    Bottom,
    Bound,
    COMBINATORS,
    Const,
    IntervalSort,
    Lam,
    STAR,
    Signature,
    Var,
    app,
    arrow,
    bind,
    combinator_schema_matches,
    combinator_sort,
    free_vars,
    parse_sort,
    parse_term,
    print_term,
    render_sort,
    substitute,
    subterms,
    term_from_json,
    term_to_json,
    typecheck,
)

O = BaseSort("o")
OO = arrow(O, O)


# ---------------------------------------------------------------------------
# Sorts


def test_sort_render_parse_roundtrip():
    for text in ["o", "o->o", "(o->o)->o", "o->o->o", "[0,1]", "[0,1]->[0,5/4]", "*"]:
        assert render_sort(parse_sort(text)) == text


def test_sorts_built_apart_hash_and_compare_equal():
    pairs = [
        (parse_sort("[0,1]->[0,1]"), arrow(IntervalSort(F(0), F(1)), IntervalSort(F(0), F(1)))),
        (IntervalSort(F(2, 4), F(1)), IntervalSort(F(1, 2), F(1))),
        (parse_sort("(o->o)->o"), arrow(OO, BaseSort("o"))),
    ]
    for a, b in pairs:
        assert a is not b
        fields_before, repr_before = dataclasses.fields(a), repr(a)
        assert hash(a) == hash(b) and a == b
        # the cached hash is the dataclass hash of the fields, and it stays
        # out of the fields, repr and equality
        assert hash(a) == hash(tuple(getattr(a, f.name) for f in dataclasses.fields(a)))
        assert dataclasses.fields(a) == fields_before and repr(a) == repr_before
        assert repr(a) == repr(b) and render_sort(a) == render_sort(b)
        assert len({a: 1, b: 2}) == 1
    assert repr(pairs[1][0]) == "IntervalSort(lo=Fraction(1, 2), hi=Fraction(1, 1))"
    assert IntervalSort(F(0), F(1)) != IntervalSort(F(0), F(2))


def test_star_arrow_collapses():
    assert arrow(STAR, STAR) is STAR
    with pytest.raises(SortError):
        arrow(STAR, O)


def test_interval_sort_validation():
    with pytest.raises(StructuralError):
        IntervalSort(F(1), F(0))


# ---------------------------------------------------------------------------
# Construction and sorting


def test_app_sort_checks():
    f = Var("f", OO)
    x = Var("x", O)
    assert App(f, x).sort == O
    with pytest.raises(SortError):
        App(x, x)
    with pytest.raises(SortError):
        App(f, Var("g", OO))


def test_bottom_only_at_base_sorts():
    assert Bottom(O).sort == O
    with pytest.raises(SortError):
        Bottom(OO)


def test_bind_abstracts_free_variable():
    x = Var("x", O)
    t = bind("x", O, App(Var("f", OO), x))
    assert isinstance(t, Lam)
    assert "x" not in free_vars(t)
    assert free_vars(t) == {"f": OO}


def test_alpha_equivalence_ignores_hints():
    a = bind("x", O, Var("x", O))
    b = bind("y", O, Var("y", O))
    assert a == b
    assert hash(a) == hash(b)


def test_substitute_checks_sorts_and_capture():
    t = App(Var("f", OO), Var("x", O))
    s = substitute(t, {"x": Const("c", O)})
    assert s == App(Var("f", OO), Const("c", O))
    with pytest.raises(SortError):
        substitute(t, {"x": Var("g", OO)})


def test_substitute_is_identity_off_support():
    t = bind("x", O, App(Var("f", OO), Var("x", O)))
    assert substitute(t, {"y": Const("c", O)}) == t


# ---------------------------------------------------------------------------
# Parsing and printing


SIG = Signature(constants={"c": O, "m": OO})


CASES = [
    "\\x:o. x",
    "\\x:o->o. x (x c)",
    "m (m c)",
    "\\f:o->o. \\x:o. f (f x)",
    "bot:o",
]


@pytest.mark.parametrize("text", CASES)
def test_parse_print_roundtrip(text):
    t = parse_term(text, SIG)
    assert parse_term(print_term(t), SIG) == t


@pytest.mark.parametrize("text", CASES)
def test_json_roundtrip(text):
    t = parse_term(text, SIG)
    assert term_from_json(term_to_json(t)) == t


def test_parse_untyped():
    sig = Signature(untyped=True)
    t = parse_term("S K K x", sig)
    assert t.sort is STAR
    assert typecheck(t, sig) is STAR


@pytest.mark.parametrize("text", ["bot:o", "\\x:o. x", "\\x:*. \\y:o->o. x"])
def test_untyped_parse_rejects_typed_annotations_on_bottom_and_binders(text):
    with pytest.raises(ParseError, match="is untyped: its annotation must be \\*, not o"):
        parse_term(text, Signature(untyped=True))
    with pytest.raises(ParseError, match="is untyped: its annotation must be \\*, not o"):
        parse_term("#star " + text)


def test_parse_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse_term("\\x:o. )", SIG)
    assert exc.value.offset is not None


def test_parse_rejects_unknown_symbol():
    with pytest.raises(ParseError):
        parse_term("y", SIG)


def test_inline_annotations_bind_sorts():
    t = parse_term("f:o->o (g:o->o c)", SIG)
    assert free_vars(t) == {"f": OO, "g": OO}


def test_typecheck_rejects_undeclared_constant():
    sig = Signature(constants={})
    with pytest.raises(SortError):
        typecheck(Const("d", O), sig)


def test_typecheck_takes_a_deep_spine_at_the_default_recursion_limit():
    x, sig = Var("x", STAR), Signature(untyped=True)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        checked = set()
        assert _typecheck(app(x, *[x] * 10_000), sig, checked) is STAR
        assert len(checked) == 10_001
        # the leftmost bad constant is the one reported, at any depth, and
        # the nodes of a term that fails do not stay in checked
        bad = app(Const("a", STAR), *[x] * 10_000, Const("b", STAR))
        with pytest.raises(SortError, match="unknown constant a$"):
            _typecheck(bad, sig, checked)
        assert len(checked) == 10_001
    finally:
        sys.setrecursionlimit(limit)


def test_equality_takes_deep_terms_at_the_default_recursion_limit():
    # == walks node pairs on its own stack: spines, argument nests and
    # binder nests built apart compare at any depth
    assert sys.getrecursionlimit() <= 1000
    x = Var("x", STAR)
    assert app(x, *[x] * 100_000) == app(x, *[x] * 100_000)
    assert app(x, *[x] * 100_000) != app(x, *[x] * 99_999, Var("y", STAR))

    def nest(depth, leaf, wrap):
        t = leaf
        for _ in range(depth):
            t = wrap(t)
        return t

    args = [nest(20_000, x, lambda t: App(x, t)) for _ in range(2)]
    assert args[0] == args[1]
    lams = [nest(20_000, x, lambda t: Lam("h", STAR, t)) for _ in range(2)]
    assert lams[0] == lams[1]
    assert lams[0] != nest(20_000, Var("y", STAR), lambda t: Lam("h", STAR, t))


def test_typecheck_enforces_the_regime_of_the_signature():
    with pytest.raises(SortError, match="typed term used under an untyped signature"):
        typecheck(Var("x", O), Signature(untyped=True))
    with pytest.raises(SortError, match="untyped term used under a typed signature"):
        typecheck(Var("x", STAR), Signature())


def test_combinator_instances_typecheck():
    sig = Signature()
    k = parse_term("K:o->o->o c:o", sig)
    assert k.sort == OO
    with pytest.raises(ParseError):
        parse_term("K:o->o c", sig)


def oracle_combinator_schema_matches(name, sort):
    """The I / K / S shapes checked one by one, by definition."""
    if sort is STAR:
        return name in ("I", "K", "S")
    if name == "I":
        return isinstance(sort, ArrowSort) and sort.dom == sort.cod
    if name == "K":
        # i -> j -> i
        return (
            isinstance(sort, ArrowSort)
            and isinstance(sort.cod, ArrowSort)
            and sort.dom == sort.cod.cod
        )
    if name == "S":
        # (i -> j -> k) -> (i -> j) -> i -> k
        if not (
            isinstance(sort, ArrowSort)
            and isinstance(sort.dom, ArrowSort)
            and isinstance(sort.dom.cod, ArrowSort)
            and isinstance(sort.cod, ArrowSort)
            and isinstance(sort.cod.dom, ArrowSort)
            and isinstance(sort.cod.cod, ArrowSort)
        ):
            return False
        i = sort.dom.dom
        j = sort.dom.cod.dom
        k = sort.dom.cod.cod
        return sort.cod.dom == ArrowSort(i, j) and sort.cod.cod == ArrowSort(i, k)
    return False


def test_combinator_schema_agrees_with_the_shapes():
    """combinator_schema_matches reads (i, j, k) off the sort and compares
    it with combinator_sort; the shape-by-shape oracle agrees on every
    sort of arrow depth at most 3 over o and [0,1] (1,446 sorts), and on
    STAR, for I, K, S and a name that is no combinator."""
    level = [O, IntervalSort(F(0), F(1))]
    sorts = list(level)
    for _ in range(3):
        sorts = level + [arrow(a, b) for a in sorts for b in sorts]
    assert len(sorts) == 1446
    matches = 0
    for name in ("I", "K", "S", "X"):
        for sort in sorts + [STAR]:
            want = oracle_combinator_schema_matches(name, sort)
            assert combinator_schema_matches(name, sort) == want, (name, sort)
            matches += want
    assert matches == 82 + 3
    for name in COMBINATORS:
        triple = (OO, O, arrow(O, OO))
        assert combinator_schema_matches(name, combinator_sort(name, *triple))
        assert combinator_sort(name, STAR, STAR, STAR) is STAR


# ---------------------------------------------------------------------------
# Random structural properties


@st.composite
def typed_term(draw, sort=O, depth=3, scope=()):
    choices = ["var", "const"]
    if depth > 0:
        choices.append("app")
        if isinstance(sort, ArrowSort):
            choices.append("lam")
    kind = draw(st.sampled_from(choices))
    if kind == "lam":
        name = f"b{len(scope)}"
        body = draw(typed_term(sort.cod, depth - 1, scope + ((name, sort.dom),)))
        return bind(name, sort.dom, body)
    if kind == "app":
        fn = draw(typed_term(arrow(O, sort), depth - 1, scope))
        arg = draw(typed_term(O, depth - 1, scope))
        return App(fn, arg)
    in_scope = [Var(n, s) for n, s in scope if s == sort]
    if kind == "var" and in_scope:
        return draw(st.sampled_from(in_scope))
    if sort == O:
        return Const("c", sort)
    arity = 0
    s = sort
    while isinstance(s, ArrowSort):
        arity += 1
        s = s.cod
    return Var(f"g{arity}", sort)


@settings(max_examples=60, deadline=None)
@given(typed_term(sort=arrow(O, OO) if False else OO))
def test_random_terms_roundtrip_and_typecheck(t):
    sig = Signature(constants={"c": O})
    assert typecheck(t, sig) == t.sort
    assert parse_term(print_term(t), sig, var_sorts=free_vars(t)) == t
    assert term_from_json(term_to_json(t)) == t


@settings(max_examples=60, deadline=None)
@given(typed_term(sort=OO))
def test_subterms_contains_self_and_respects_size(t):
    subs = list(subterms(t))
    assert t in subs
    assert all(s.sort is not None for s in subs)


# ---------------------------------------------------------------------------
# Printing against the recursive printer


def oracle_fresh(base, used):
    if base not in used:
        return base
    k = 1
    while f"{base}{k}" in used:
        k += 1
    return f"{base}{k}"


def oracle_print_term(t):
    """The printer by definition, one recursion per node: a function sits
    at precedence 1 and an argument at 2; an application is parenthesised
    at 2, an abstraction at 1 and up; a binder prints as its hint made
    fresh against the free names of t and the enclosing binders; ⊥ and
    binders carry a sort unless t is untyped."""
    untyped = t.sort is STAR
    used = set(free_vars(t))

    def go(s, ctx, prec):
        if isinstance(s, (Var, Const)):
            return s.name
        if isinstance(s, Bound):
            return ctx[s.index]
        if isinstance(s, Bottom):
            return "bot" if untyped else f"bot:{render_sort(s.sort)}"
        if isinstance(s, App):
            text = f"{go(s.fn, ctx, 1)} {go(s.arg, ctx, 2)}"
            return f"({text})" if prec >= 2 else text
        name = oracle_fresh(s.hint, used | set(ctx))
        ann = "" if untyped else f":{render_sort(s.var_sort)}"
        text = f"\\{name}{ann}. {go(s.body, [name] + ctx, 0)}"
        return f"({text})" if prec >= 1 else text

    return go(t, [], 0)


# hints that clash with free names (x, g0, g1), a constant (c), one
# another and the names the printer makes fresh (x1)
HINTS = ("x", "y", "x1", "g0", "g1", "c")


@st.composite
def untyped_term(draw, depth=4, binders=0):
    kinds = ["var", "const", "bot"] + ["bound"] * bool(binders) + ["app", "lam"] * bool(depth)
    kind = draw(st.sampled_from(kinds))
    if kind == "app":
        return App(draw(untyped_term(depth - 1, binders)), draw(untyped_term(depth - 1, binders)))
    if kind == "lam":
        return Lam(draw(st.sampled_from(HINTS)), STAR, draw(untyped_term(depth - 1, binders + 1)))
    if kind == "bound":
        return Bound(draw(st.integers(0, binders - 1)), STAR)
    if kind == "bot":
        return Bottom(STAR)
    if kind == "const":
        return Const("K", STAR)
    return Var(draw(st.sampled_from(["x", "g0"])), STAR)


def _vary(t, draw, shared):
    """t with each binder hint drawn from HINTS and each constant c maybe
    turned into ⊥; equal results with equal hints are one object."""
    if isinstance(t, App):
        t = App(_vary(t.fn, draw, shared), _vary(t.arg, draw, shared))
    elif isinstance(t, Lam):
        t = Lam(draw(st.sampled_from(HINTS)), t.var_sort, _vary(t.body, draw, shared))
    elif isinstance(t, Const) and t.sort == O and draw(st.booleans()):
        t = Bottom(O)
    hints = tuple(s.hint for s in subterms(t) if isinstance(s, Lam))
    return shared.setdefault((t, hints), t)


@st.composite
def printable_terms(draw):
    """One to four terms, typed and untyped, that share their equal
    subterms, among them ⊥ leaves and clashing binder hints."""
    shared: dict = {}
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            t = draw(untyped_term())
        else:
            sort = draw(st.sampled_from([O, OO, arrow(OO, O), arrow(O, OO)]))
            t = draw(typed_term(sort, depth=4))
        terms.append(_vary(t, draw, shared))
    return terms


@settings(max_examples=300, deadline=None, derandomize=True)
@given(printable_terms())
def test_printer_matches_the_recursive_oracle(terms):
    texts: dict = {}  # shared across the terms, as the proof writer shares it
    for t in terms:
        want = oracle_print_term(t)
        assert print_term(t) == want
        assert _print(t, texts) == want
    for t in terms:
        assert _print(t, texts) == oracle_print_term(t)  # from the stored texts


def test_printer_renames_clashing_binders():
    x = Var("x", O)
    t = Lam("x", O, Lam("x", O, App(App(Var("f", arrow(O, OO)), Bound(1, O)), x)))
    assert print_term(t) == oracle_print_term(t) == "\\x1:o. \\x2:o. f x1 x"
    u = app(Const("K", STAR), Lam("x", STAR, Bottom(STAR)), Var("x", STAR))
    assert print_term(u) == oracle_print_term(u) == "K (\\x1. bot) x"


def test_stored_texts_stop_at_binders():
    # one body under two binders: its text depends on the binder above it,
    # so the shared texts keep only its binder-free applications
    fc = App(Var("f", OO), Const("c", O))
    body = App(App(Var("g", arrow(O, OO)), fc), Bound(0, O))
    texts: dict = {}
    assert _print(Lam("x", O, body), texts) == "\\x:o. g (f c) x"
    assert _print(Lam("y", O, body), texts) == "\\y:o. g (f c) y"
    assert texts == {id(fc): "f c", id(body.fn): "g (f c)"}


def test_printer_takes_deep_terms_in_little_memory():
    # the printer keeps no memo of its own: a 10,001-argument spine prints
    # within 8 MiB of traced allocation at the default recursion limit
    assert sys.getrecursionlimit() <= 1000
    x = Var("x", STAR)
    spine = app(x, *[x] * 10_000)
    tracemalloc.start()
    try:
        text = print_term(spine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == " ".join(["x"] * 10_001)
    assert peak < 8 * 2**20, peak
    nest = x
    for _ in range(10_000):
        nest = App(x, nest)
    assert print_term(nest) == "x (" * 9_999 + "x x" + ")" * 9_999
    lams = x
    for _ in range(2_000):
        lams = Lam("y", STAR, lams)
    names = ["y"] + [f"y{k}" for k in range(1, 2_000)]
    assert print_term(lams) == "".join(f"\\{n}. " for n in names) + "x"


def _binder_chain(hints, n):
    """n nested binders over x, their hints cycling through hints."""
    t = Var("x", STAR)
    for i in reversed(range(n)):
        t = Lam(hints[i % len(hints)], STAR, t)
    return t


def _timed_print(t):
    start = time.perf_counter()
    text = print_term(t)
    return text, time.perf_counter() - start


def test_naming_nested_binders_is_linear():
    # each binder takes the least free suffix of its hint; 20,000 binders
    # print in well under 0.1 s, and the bound leaves room for a slow host,
    # not for a printer that probes O(depth) names at O(depth) cost each
    assert sys.getrecursionlimit() <= 1000
    n = 20_000
    text, took = _timed_print(_binder_chain(("y",), n))
    assert text == "".join(f"\\y{k or ''}. " for k in range(n)) + "x"
    assert took < 2.0, took

    text, took = _timed_print(_binder_chain(("y", "y1"), n))
    assert text == _alternating_chain_text(n)
    assert took < 2.0, took
    small = _binder_chain(("y", "y1"), 300)
    assert print_term(small) == oracle_print_term(small) == _alternating_chain_text(300)


def _alternating_chain_text(n):
    """The text of n binders hinted y and y1 in turn: y1's names y11,
    y12, ..., y110, ... are y's suffixes 11, 12, ..., 110, so a y binder
    skips exactly the numbers "1" followed by a positive integer, which
    the y1 binders take first."""

    def y1_made(k):
        digits = str(k)
        return len(digits) > 1 and digits[0] == "1" and digits[1] != "0"

    ys = itertools.chain(["y"], (f"y{k}" for k in itertools.count(2) if not y1_made(k)))
    y1s = itertools.chain(["y1"], (f"y1{j}" for j in itertools.count(1)))
    return "".join(f"\\{next(ys) if i % 2 == 0 else next(y1s)}. " for i in range(n)) + "x"
