"""Sorts, signatures and terms for combinatory logic and the typed
lambda calculus with bottom.

Terms are locally nameless: bound variables are de Bruijn indices, free
variables carry names.  Binders keep a display hint that is excluded from
equality and hashing, so structural equality is alpha-equivalence.  Every
node caches its hash eagerly, making corpus-scale equality cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .errors import ParseError, SortError, StructuralError

__all__ = [
    "Sort",
    "BaseSort",
    "IntervalSort",
    "ArrowSort",
    "StarSort",
    "STAR",
    "arrow",
    "render_sort",
    "Signature",
    "Term",
    "Var",
    "Bound",
    "Const",
    "Bottom",
    "App",
    "Lam",
    "app",
    "bind",
    "free_vars",
    "bound_hints",
    "substitute",
    "typecheck",
    "parse_term",
    "parse_sort",
    "print_term",
    "term_to_json",
    "term_from_json",
    "COMBINATORS",
    "combinator_sort",
    "combinator_schema_matches",
]


# ---------------------------------------------------------------------------
# Sorts


class Sort:
    __slots__ = ()

    def is_base(self) -> bool:
        return isinstance(self, (BaseSort, IntervalSort, StarSort))


def _fields_hash(self) -> int:
    """The dataclass hash of the fields, computed on first use and kept
    outside them, so repr, == and dataclasses.fields do not see it.
    Sorts key most of the finite-model tables and equations the proof
    layer's sets; an IntervalSort hash is two Fraction hashes, an
    equation's one."""
    try:
        return self._hash
    except AttributeError:
        h = hash(tuple(getattr(self, name) for name in self.__match_args__))
        object.__setattr__(self, "_hash", h)
        return h


@dataclass(frozen=True)
class BaseSort(Sort):
    name: str

    __hash__ = _fields_hash


@dataclass(frozen=True)
class IntervalSort(Sort):
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise StructuralError(f"interval sort [{self.lo},{self.hi}] has lo > hi")

    __hash__ = _fields_hash


@dataclass(frozen=True)
class ArrowSort(Sort):
    dom: Sort
    cod: Sort

    __hash__ = _fields_hash


@dataclass(frozen=True)
class StarSort(Sort):
    """The single sort of the untyped regime; star -> star = star."""


STAR = StarSort()


def arrow(dom: Sort, cod: Sort) -> Sort:
    if dom is STAR and cod is STAR:
        return STAR
    if isinstance(dom, StarSort) != isinstance(cod, StarSort):
        raise SortError("cannot mix the untyped sort with typed sorts")
    return ArrowSort(dom, cod)


def render_sort(s: Sort) -> str:
    if isinstance(s, StarSort):
        return "*"
    if isinstance(s, BaseSort):
        return s.name
    if isinstance(s, IntervalSort):
        return f"[{s.lo},{s.hi}]"
    if isinstance(s, ArrowSort):
        dom = render_sort(s.dom)
        if isinstance(s.dom, ArrowSort):
            dom = f"({dom})"
        return f"{dom}->{render_sort(s.cod)}"
    raise StructuralError(f"unknown sort {s!r}")


def sort_spine(s: Sort) -> tuple[list[Sort], Sort]:
    """Decompose s as s1 -> ... -> sm -> base."""
    args: list[Sort] = []
    while isinstance(s, ArrowSort):
        args.append(s.dom)
        s = s.cod
    return args, s


# ---------------------------------------------------------------------------
# Signature


COMBINATORS = ("I", "K", "S")


def combinator_sort(name: str, i: Sort, j: Optional[Sort] = None, k: Optional[Sort] = None) -> Sort:
    """The sort of combinator name at the instance (i, j, k): I is i->i,
    K is i->j->i and S is (i->j->k)->(i->j)->i->k.  I reads only i and
    K only i and j.  arrow(STAR, STAR) is STAR, so the untyped instance
    is (STAR, STAR, STAR), and a mix of the regimes raises SortError."""
    if name == "I":
        return arrow(i, i)
    if name == "K":
        return arrow(i, arrow(j, i))
    return arrow(arrow(i, arrow(j, k)), arrow(arrow(i, j), arrow(i, k)))


def combinator_schema_matches(name: str, sort: Sort) -> bool:
    """Whether sort is an instance of combinator name's sort: (i, j, k)
    are read off sort, which must then equal combinator_sort at them."""
    if name not in COMBINATORS:
        return False
    if sort is STAR:
        return True
    try:
        if name == "I":
            i, j, k = sort.dom, None, None
        elif name == "K":
            i, j, k = sort.dom, sort.cod.dom, None
        else:
            i, j, k = sort.dom.dom, sort.dom.cod.dom, sort.dom.cod.cod
    except AttributeError:  # a part that is not an arrow
        return False
    return sort == combinator_sort(name, i, j, k)


@dataclass
class Signature:
    """Symbols available to the parser, type checker and theories.

    constants maps a symbol name to its sort (interval constants, function
    constants, typed combinator instances under distinct names if desired).
    combinator_sorts lists the (i, j, k) instances at which the I/K/S axiom
    schemas are generated for typed theories.
    """

    untyped: bool = False
    constants: dict[str, Sort] = field(default_factory=dict)
    combinators: bool = True
    combinator_sorts: tuple[tuple[Sort, Sort, Sort], ...] = ()


# ---------------------------------------------------------------------------
# Terms


class Term:
    """A term node; each constructor sets sort and _hash once."""

    __slots__ = ("_hash", "sort")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        """Structural equality, which is alpha-equivalence: bound variables
        are indices and binder hints are left out.  One loop over node
        pairs on an explicit stack, so term depth is unbounded.  The nodes
        of a pair agree in kind and cached hash; a pair of children is
        settled before it is pushed when it is one object, differs in kind
        or hash, or is a pair of leaves."""
        if self is other:
            return True
        kind = type(self)
        if type(other) is not kind or self._hash != other._hash:
            return False
        if kind is not App and kind is not Lam:
            return _same_leaf(self, other)
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if type(a) is App:
                pairs = ((a.arg, b.arg), (a.fn, b.fn))
            elif a.var_sort != b.var_sort:
                return False
            else:
                pairs = ((a.body, b.body),)
            for x, y in pairs:
                if x is y:
                    continue
                kind = type(x)
                if kind is not type(y) or x._hash != y._hash:
                    return False
                if kind is App or kind is Lam:
                    stack.append((x, y))
                elif not _same_leaf(x, y):
                    return False
        return True


def _same_leaf(a: Term, b: Term) -> bool:
    """Two Var, Const, Bound or Bottom nodes of one kind are equal."""
    kind = type(a)
    if kind is Bound:
        return a.index == b.index and a.sort == b.sort
    return (kind is Bottom or a.name == b.name) and a.sort == b.sort


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str, sort: Sort):
        self.name = name
        self.sort = sort
        self._hash = hash(("var", name, sort))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


class Bound(Term):
    __slots__ = ("index",)

    def __init__(self, index: int, sort: Sort):
        self.index = index
        self.sort = sort
        self._hash = hash(("bound", index, sort))

    def __repr__(self) -> str:
        return f"Bound({self.index})"


class Const(Term):
    __slots__ = ("name",)

    def __init__(self, name: str, sort: Sort):
        self.name = name
        self.sort = sort
        self._hash = hash(("const", name, sort))

    def __repr__(self) -> str:
        return f"Const({self.name!r})"


class Bottom(Term):
    __slots__ = ()

    def __init__(self, sort: Sort):
        if not sort.is_base():
            raise SortError("bottom only exists at base sorts")
        self.sort = sort
        self._hash = hash(("bottom", sort))

    def __repr__(self) -> str:
        return "Bottom()"


class App(Term):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: Term, arg: Term):
        fsort = fn.sort
        if isinstance(fsort, StarSort):
            if arg.sort is not STAR:
                raise SortError("cannot mix the untyped sort with typed sorts")
            self.sort: Sort = STAR
        elif isinstance(fsort, ArrowSort):
            if fsort.dom != arg.sort:
                raise SortError(
                    f"argument sort {render_sort(arg.sort)} does not match "
                    f"domain {render_sort(fsort.dom)}"
                )
            self.sort = fsort.cod
        else:
            raise SortError(
                f"cannot apply a term of base sort {render_sort(fsort)}"
            )
        self.fn = fn
        self.arg = arg
        self._hash = hash(("app", fn._hash, arg._hash))

    def __repr__(self) -> str:
        return f"App({self.fn!r}, {self.arg!r})"


class Lam(Term):
    __slots__ = ("hint", "var_sort", "body")

    def __init__(self, hint: str, var_sort: Sort, body: Term):
        self.hint = hint
        self.var_sort = var_sort
        self.body = body
        self.sort = arrow(var_sort, body.sort)
        # hint deliberately left out: equality is alpha-equivalence
        self._hash = hash(("lam", var_sort, body._hash))

    def __repr__(self) -> str:
        return f"Lam({self.hint!r}, {self.body!r})"


def app(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def _spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose t as head t1 ... tm; the inverse of app."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def _strip(t: Term) -> tuple[list[tuple[str, Sort]], Term]:
    """Decompose t as its lambda prefix (hint, sort), outermost first, and
    the body under it; the inverse of _rewrap."""
    binders: list[tuple[str, Sort]] = []
    while isinstance(t, Lam):
        binders.append((t.hint, t.var_sort))
        t = t.body
    return binders, t


def _rewrap(binders: Sequence[tuple[str, Sort]], body: Term) -> Term:
    for hint, sort in reversed(binders):
        body = Lam(hint, sort, body)
    return body


def _rebuild(t: Term, leaf: Callable[[Term, int], Term], k: int = 0) -> Term:
    """t, taken to sit under k binders, with each Var or Bound leaf u
    replaced by leaf(u, j), j the number of binders above u.  A node below
    which nothing changed comes back as itself.  The one binder-aware walk:
    shifting, opening, binding and substitution are leaf rules over it."""
    if isinstance(t, App):
        fn = _rebuild(t.fn, leaf, k)
        arg = _rebuild(t.arg, leaf, k)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if isinstance(t, Lam):
        body = _rebuild(t.body, leaf, k + 1)
        return t if body is t.body else Lam(t.hint, t.var_sort, body)
    if isinstance(t, (Var, Bound)):
        return leaf(t, k)
    return t


def bind(name: str, sort: Sort, body: Term) -> Lam:
    """Abstract the free variable `name` out of body."""

    def leaf(u: Term, k: int) -> Term:
        if not (isinstance(u, Var) and u.name == name):
            return u
        if u.sort != sort:
            raise SortError(f"variable {name} bound at a different sort")
        return Bound(k, sort)

    return Lam(name, sort, _rebuild(body, leaf))


def subterms(t: Term) -> Iterator[Term]:
    """Every subterm of t in preorder (function before argument)."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack.append(t.arg)
            stack.append(t.fn)
        elif isinstance(t, Lam):
            stack.append(t.body)


def free_vars(t: Term) -> dict[str, Sort]:
    out: dict[str, Sort] = {}
    for s in subterms(t):
        if isinstance(s, Var):
            out[s.name] = s.sort
    return out


def bound_hints(t: Term) -> set[str]:
    return {s.hint for s in subterms(t) if isinstance(s, Lam)}


def substitute(t: Term, env: Mapping[str, Term]) -> Term:
    """Simultaneous substitution of free variables.

    Capture cannot occur: bound variables are indices, and the images are
    required not to contain stray indices of their own.
    """
    return _substituter(env)(t)


def _substituter(env: Mapping[str, Term]) -> Callable[[Term], Term]:
    """substitute(., env), with env's images checked for stray indices
    here, once, rather than on every application."""
    for name, image in env.items():

        def stray(u: Term, k: int) -> Term:
            if isinstance(u, Bound) and u.index >= k:
                raise StructuralError(f"substitution image for {name} has stray indices")
            return u

        _rebuild(image, stray)

    def leaf(u: Term, k: int) -> Term:
        image = env.get(u.name) if isinstance(u, Var) else None
        if image is None:
            return u
        if image.sort != u.sort:
            raise SortError(
                f"substitution for {u.name} has sort "
                f"{render_sort(image.sort)}, expected {render_sort(u.sort)}"
            )
        return image

    return lambda t: _rebuild(t, leaf)


def typecheck(t: Term, sig: Optional[Signature] = None) -> Sort:
    """Recompute and validate the sort of every node.

    With a signature, constants must either be declared or match a
    combinator schema, and regime flags are enforced.
    """
    return _typecheck(t, sig, set())


def _typecheck(t: Term, sig: Optional[Signature], checked: set) -> Sort:
    """typecheck that skips the subterms in checked and adds every node
    of t that passes.  A node's check reads only its structure and sorts,
    which equality compares, so a term equal to one that passed under sig
    passes again: callers checking many terms against one signature share
    the set and check each distinct subterm once.

    The constructors already enforce the sorts of applications and
    abstractions, so what is left is each constant against sig, taken
    in print order so that the first failure is the leftmost, and the
    regime of the root.  A node enters checked before its subterms are
    checked, so on a failure the nodes this call added leave again.
    """
    added: list[Term] = []
    stack = [t]
    try:
        while stack:
            s = stack.pop()
            if s in checked:
                continue
            checked.add(s)
            added.append(s)
            if isinstance(s, App):
                stack += (s.arg, s.fn)
            elif isinstance(s, Lam):
                stack.append(s.body)
            elif isinstance(s, Const):
                if sig is not None:
                    declared = sig.constants.get(s.name)
                    if declared is not None:
                        if declared != s.sort:
                            raise SortError(
                                f"constant {s.name} declared at "
                                f"{render_sort(declared)}, used at {render_sort(s.sort)}"
                            )
                    elif not (sig.combinators and combinator_schema_matches(s.name, s.sort)):
                        raise SortError(f"unknown constant {s.name}")
            elif not isinstance(s, (Var, Bound, Bottom)):
                raise StructuralError(f"unknown term node {s!r}")
    except (SortError, StructuralError):
        checked.difference_update(added)
        raise
    if sig is not None:
        if sig.untyped and t.sort is not STAR:
            raise SortError("typed term used under an untyped signature")
        if not sig.untyped and t.sort is STAR:
            raise SortError("untyped term used under a typed signature")
    return t.sort


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<flag>\#star)
  | (?P<lam>\\)
  | (?P<arrow>->)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<lbrack>\[)
  | (?P<rbrack>\])
  | (?P<comma>,)
  | (?P<colon>:)
  | (?P<dot>\.)
  | (?P<star>\*)
  | (?P<number>-?\d+(/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig: Signature, var_sorts: Mapping[str, Sort]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.sig = sig
        self.var_sorts = dict(var_sorts)
        self.untyped = sig.untyped
        if self.tokens and self.tokens[0].kind == "flag":
            self.untyped = True
            self.pos += 1

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text or 'end of input'}", tok.offset)
        return self.next()

    # sorts --------------------------------------------------------------
    def sort(self) -> Sort:
        left = self.sort_atom()
        if self.peek().kind == "arrow":
            self.next()
            return arrow(left, self.sort())
        return left

    def sort_atom(self) -> Sort:
        tok = self.peek()
        if tok.kind == "lpar":
            self.next()
            s = self.sort()
            self.expect("rpar")
            return s
        if tok.kind == "star":
            self.next()
            return STAR
        if tok.kind == "lbrack":
            self.next()
            lo = Fraction(self.expect("number").text)
            self.expect("comma")
            hi = Fraction(self.expect("number").text)
            self.expect("rbrack")
            return IntervalSort(lo, hi)
        if tok.kind == "name":
            self.next()
            return BaseSort(tok.text)
        raise ParseError(f"expected a sort, found {tok.text or 'end of input'}", tok.offset)

    # terms --------------------------------------------------------------
    def term(self, ctx: list[tuple[str, Sort]]) -> Term:
        tok = self.peek()
        if tok.kind == "lam":
            self.next()
            name = self.expect("name")
            var_sort = self.annotation(name)
            if var_sort is None:
                if not self.untyped:
                    raise ParseError(f"binder {name.text} needs a sort annotation", tok.offset)
                var_sort = STAR
            self.expect("dot")
            body = self.term([(name.text, var_sort)] + ctx)
            return Lam(name.text, var_sort, body)
        return self.application(ctx)

    def application(self, ctx: list[tuple[str, Sort]]) -> Term:
        t = self.atom(ctx)
        while self.peek().kind in ("lpar", "name", "lam"):
            if self.peek().kind == "lam":
                t = App(t, self.term(ctx))
                break
            t = App(t, self.atom(ctx))
        return t

    def atom(self, ctx: list[tuple[str, Sort]]) -> Term:
        tok = self.peek()
        if tok.kind == "lpar":
            self.next()
            t = self.term(ctx)
            self.expect("rpar")
            return t
        if tok.kind == "name":
            self.next()
            return self.resolve(tok, self.annotation(tok), ctx)
        raise ParseError(
            f"expected a term, found {tok.text or 'end of input'}", tok.offset
        )

    def annotation(self, tok: _Token) -> Optional[Sort]:
        """The sort annotating the name tok, if one follows; under the
        untyped regime it must be *."""
        if self.peek().kind != "colon":
            return None
        self.next()
        annotated = self.sort()
        if self.untyped and annotated is not STAR:
            sort = render_sort(annotated)
            raise ParseError(f"{tok.text} is untyped: its annotation must be *, not {sort}", tok.offset)
        return annotated

    def resolve(
        self, tok: _Token, annotated: Optional[Sort], ctx: list[tuple[str, Sort]]
    ) -> Term:
        name = tok.text
        if name == "bot":
            if annotated is None and not self.untyped:
                raise ParseError("bot needs a sort annotation in the typed regime", tok.offset)
            return Bottom(annotated or STAR)
        for depth, (bound_name, bound_sort) in enumerate(ctx):
            if bound_name == name:
                if annotated is not None and annotated != bound_sort:
                    raise ParseError(
                        f"{name} is bound at sort {render_sort(bound_sort)}", tok.offset
                    )
                return Bound(depth, bound_sort)
        declared = self.sig.constants.get(name)
        if declared is not None:
            if annotated is not None and annotated != declared:
                raise ParseError(
                    f"constant {name} is declared at {render_sort(declared)}", tok.offset
                )
            return Const(name, declared)
        combinator = self.sig.combinators and name in COMBINATORS
        if self.untyped:
            return Const(name, STAR) if combinator else Var(name, STAR)
        if combinator:
            if annotated is None:
                raise ParseError(
                    f"typed combinator {name} needs a sort annotation", tok.offset
                )
            if not combinator_schema_matches(name, annotated):
                raise ParseError(
                    f"sort {render_sort(annotated)} does not match the {name} schema",
                    tok.offset,
                )
            return Const(name, annotated)
        sort = annotated or self.var_sorts.get(name)
        if sort is None:
            raise ParseError(f"unknown symbol {name}", tok.offset)
        return Var(name, sort)


def parse_sort(text: str) -> Sort:
    parser = _Parser(text, Signature(), {})
    s = parser.sort()
    parser.expect("eof")
    return s


def parse_term(
    text: str,
    sig: Optional[Signature] = None,
    var_sorts: Optional[Mapping[str, Sort]] = None,
) -> Term:
    parser = _Parser(text, sig or Signature(), var_sorts or {})
    t = parser.term([])
    parser.expect("eof")
    return t


# ---------------------------------------------------------------------------
# Printing


def print_term(t: Term) -> str:
    return _print(t, None)


def _print(t: Term, texts: Optional[dict[int, str]], used: Optional[frozenset] = None) -> str:
    """The text of t, built by one walk on an explicit stack.  A binder
    prints as its hint, made fresh against the enclosing binders and used,
    the free names of t, found at the first binder when not given.  App
    and Lam reject mixed regimes, so a node's own sort says whether ⊥ and
    binders print a sort.

    texts, when given, maps id(node) to the text of each application with
    no Lam or Bound below it, which prints the same wherever it sits; the
    walk reads and fills it, so terms that share nodes print each such
    node once.  The nodes must outlive texts."""
    parts: list[str] = []
    names: list[str] = []  # the enclosing binders' names, innermost last
    # made at the first binder: the names a binder may not take (used and
    # the enclosing binders' names).  Made at the first binder whose hint
    # is taken: per such hint the least suffix not known to be taken, and
    # the (depth, hint, floor) to restore on leaving each such binder
    taken: Optional[set[str]] = None
    floors: Optional[dict[str, int]] = None
    saved: list[tuple[int, str, int]]
    scoped = 0  # Lam and Bound nodes printed so far
    # an entry is a piece of text, (node, precedence) to print, None to
    # leave a binder, or (node, start, scoped) to store the node's text
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
        elif item is None:
            taken.discard(names.pop())
            if floors and saved and saved[-1][0] == len(names):
                _, hint, floor = saved.pop()
                floors[hint] = floor
        elif len(item) == 3:
            s, start, before = item
            if before == scoped:
                text = texts[id(s)] = "".join(parts[start:])
                parts[start:] = [text]
        else:
            s, prec = item
            kind = type(s)
            if kind is App:  # parenthesised as an argument (precedence 2)
                text = None if texts is None else texts.get(id(s))
                if prec == 2:
                    parts.append("(")
                    stack.append(")")
                if text is not None:
                    parts.append(text)
                elif texts is None:
                    stack += ((s.arg, 2), " ", (s.fn, 1))
                else:
                    stack += ((s, len(parts), scoped), (s.arg, 2), " ", (s.fn, 1))
            elif kind is Var or kind is Const:
                parts.append(s.name)
            elif kind is Bound:
                scoped += 1
                parts.append(names[-1 - s.index])
            elif kind is Bottom:
                parts.append("bot" if s.sort is STAR else f"bot:{render_sort(s.sort)}")
            elif kind is Lam:  # parenthesised as a function or an argument
                scoped += 1
                if taken is None:
                    taken = set(free_vars(t) if used is None else used)
                name = s.hint
                if name in taken:
                    # names only join the scope while a binder is open, so
                    # every suffix below the floor is still taken
                    if floors is None:
                        floors, saved = {}, []
                    hint = name
                    k = floor = floors.get(hint, 1)
                    name = f"{hint}{k}"
                    while name in taken:
                        k += 1
                        name = f"{hint}{k}"
                    saved.append((len(names), hint, floor))
                    floors[hint] = k + 1
                taken.add(name)
                if prec:
                    parts.append("(")
                    stack.append(")")
                ann = "" if s.var_sort is STAR else f":{render_sort(s.var_sort)}"
                parts.append(f"\\{name}{ann}. ")
                names.append(name)
                stack += (None, (s.body, 0))
            else:
                raise StructuralError(f"unknown term node {s!r}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# JSON
#
# One wire form.  A document lists term records under "terms", children
# before parents; a record's child (fn, arg, body) is the integer index of
# an earlier entry, and the document names its terms by index.  Term,
# inference and derivation documents differ only in what names the terms
# (quant_deduction adds equation and proof tables); _entry_at reads every
# index of every table.
# _TermTable writes the list: it keys each node by (kind, fields, child
# indices), so every structurally distinct node, hints included, is
# written once and the list depends only on the terms' values.
# _terms_from_json reads it in one forward pass.  Its decoder table keys a
# leaf by (kind, name or index, sort text), so a variable is one object
# wherever it occurs, in the list or in a quantified set; records are
# unique, so every other node decodes to one object already.


class _TermTable:
    """The term table of one document: records in first-seen postorder,
    one per (kind, fields, child indices)."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._keys: dict[tuple, int] = {}
        self._ids: dict[int, int] = {}
        self._roots: list[Term] = []  # keeps every id in _ids valid

    def index(self, t: Term) -> int:
        """The index of t's record, adding t's new nodes, function before
        argument."""
        ids, keys, records = self._ids, self._keys, self.records
        i = ids.get(id(t))
        if i is not None:
            return i
        self._roots.append(t)
        stack = [(t, False)]
        while stack:
            s, ready = stack.pop()
            if id(s) in ids:
                continue
            if isinstance(s, App):
                if not ready:
                    stack += ((s, True), (s.arg, False), (s.fn, False))
                    continue
                rec = {"node": "app", "fn": ids[id(s.fn)], "arg": ids[id(s.arg)]}
            elif isinstance(s, Lam):
                if not ready:
                    stack += ((s, True), (s.body, False))
                    continue
                rec = {
                    "node": "lam",
                    "hint": s.hint,
                    "var_sort": render_sort(s.var_sort),
                    "body": ids[id(s.body)],
                }
            elif isinstance(s, Var):
                rec = {"node": "var", "name": s.name, "sort": render_sort(s.sort)}
            elif isinstance(s, Bound):
                rec = {"node": "bvar", "index": s.index, "sort": render_sort(s.sort)}
            elif isinstance(s, Const):
                rec = {"node": "const", "name": s.name, "sort": render_sort(s.sort)}
            elif isinstance(s, Bottom):
                rec = {"node": "bottom", "sort": render_sort(s.sort)}
            else:
                raise StructuralError(f"unknown term node {s!r}")
            key = tuple(rec.values())
            i = keys.get(key)
            if i is None:
                i = keys[key] = len(records)
                records.append(rec)
            ids[id(s)] = i
        return ids[id(t)]


def term_to_json(t: Term) -> dict:
    """The term document {"terms": [...], "root": i} of t."""
    table = _TermTable()
    root = table.index(t)
    return {"terms": table.records, "root": root}


def term_from_json(data) -> Term:
    """Decode a term document; every malformed shape is a StructuralError."""
    terms = _terms_from_json(data, {})
    return _entry_at(terms, _json_field(data, "root", object))


_REQUIRED = object()


def _json_field(data, key: str, kind=str, default=_REQUIRED):
    """data[key], which must be an instance of kind (a type or a tuple of
    types; a bool only when kind is bool); every other shape of data is a
    StructuralError."""
    if not isinstance(data, dict):
        raise StructuralError(f"bad JSON: expected an object, found {type(data).__name__}")
    value = data.get(key, default)
    if value is _REQUIRED:
        raise StructuralError(f"bad JSON: missing field {key!r}")
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise StructuralError(f"bad JSON: field {key!r} has type {type(value).__name__}")
    return value


def _sort_from_json(text: str, table: dict) -> Sort:
    if not isinstance(text, str):
        raise StructuralError(f"bad JSON: sort {text!r} is not a string")
    key = ("sort", text)
    s = table.get(key)
    if s is None:
        s = table[key] = parse_sort(text)
    return s


def _leaf_from_json(kind: str, name, text: str, table: dict) -> Term:
    """The leaf (kind, name or index, sort text), validated when the
    table first meets it."""
    key = (kind, name, text)
    t = table.get(key)
    if t is None:
        sort = _sort_from_json(text, table)
        if kind == "bottom":
            t = Bottom(sort)
        elif kind == "bvar":
            if not isinstance(name, int) or isinstance(name, bool) or name < 0:
                raise StructuralError(f"bad JSON: bound index {name!r}")
            t = Bound(name, sort)
        elif not isinstance(name, str):
            raise StructuralError(f"bad JSON: {kind} name {name!r} is not a string")
        else:
            t = Var(name, sort) if kind == "var" else Const(name, sort)
        table[key] = t
    return t


def _node_from_json(data, terms: list[Term], table: dict) -> Term:
    """The node whose record is data; a child is an index into terms."""
    try:
        kind = data["node"]
        if kind in ("var", "const"):
            return _leaf_from_json(kind, data["name"], data["sort"], table)
        if kind == "bvar":
            return _leaf_from_json(kind, data["index"], data["sort"], table)
        if kind == "bottom":
            return _leaf_from_json(kind, None, data["sort"], table)
        if kind == "app":
            fn, arg = data["fn"], data["arg"]
        elif kind == "lam":
            hint, text, body = data["hint"], data["var_sort"], data["body"]
        else:
            raise StructuralError(f"unknown term node kind {kind!r}")
    except (KeyError, TypeError) as exc:
        # a missing field, a record that is not an object, an unhashable value
        raise StructuralError(f"bad term JSON: {exc}") from exc
    if kind == "app":
        return App(_entry_at(terms, fn), _entry_at(terms, arg))
    if not isinstance(hint, str):
        raise StructuralError(f"bad JSON: binder hint {hint!r} is not a string")
    return Lam(hint, _sort_from_json(text, table), _entry_at(terms, body))


def _entry_at(entries: list, i, what: str = "term"):
    """entries[i] for a reference i of a document.  The one index rule:
    i is an int (not a bool) with 0 <= i < len(entries), where entries is
    the part of a table decoded so far when a table entry refers into its
    own table, and the whole referenced table otherwise."""
    if type(i) is not int:  # a bool is not an index
        raise StructuralError(f"bad JSON: {what} index has type {type(i).__name__}")
    if not 0 <= i < len(entries):
        raise StructuralError(f"bad JSON: {what} index {i} is not an earlier table entry")
    return entries[i]


def _terms_from_json(data, table: dict) -> list[Term]:
    """Decode the "terms" list of a document in one forward pass: a child
    index must name an earlier entry."""
    terms: list[Term] = []
    for record in _json_field(data, "terms", list):
        terms.append(_node_from_json(record, terms, table))
    return terms
