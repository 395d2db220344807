import itertools
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from qlam.corpus import remark25_space, shift_maps, theta_xi_maps
from qlam.errors import PreconditionError, StructuralError
from qlam.metric_core import (
    ExpCheckResult,
    ExtReal,
    FiniteMetricSpace,
    INF,
    PointMap,
    SpaceClass,
    ZERO,
    check_exponentiable,
    classify_space,
    enumerate_nonexpansive,
    hom_distance,
)


def grid(lo, hi, step):
    return FiniteMetricSpace.line_grid(F(lo), F(hi), F(step))


def xi_oracle(a, b, f, g):
    """Least delta with b(f(x), g(y)) <= max(a(x, y), delta) everywhere."""
    fi, gi = f.indices, g.indices
    candidates = sorted({ZERO} | b.values())
    for delta in candidates:
        if all(
            b.d(fi[x], gi[y]) <= max(a.d(x, y), delta)
            for x in range(a.size)
            for y in range(a.size)
        ):
            return delta
    return INF


# ---------------------------------------------------------------------------
# ExtReal


def test_extreal_arith_and_render():
    assert ExtReal(F(1, 2)) + ExtReal(F(1, 4)) == ExtReal(F(3, 4))
    assert (ExtReal(F(1)) + INF).is_infinite
    assert INF.render() == "inf"
    assert ExtReal("3/4") == ExtReal(F(3, 4))
    assert ExtReal(F(1, 2)) < INF
    with pytest.raises(StructuralError):
        ExtReal(F(-1))


EXT_VALUES = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2)]


@pytest.mark.parametrize("left", EXT_VALUES + [None])
def test_extreal_orders_and_compares_as_its_fraction(left):
    """None stands for infinity, above every fraction.  A Fraction or int
    operand is wrapped; an ExtReal one is read as it is."""
    x = INF if left is None else ExtReal(left)
    for right in EXT_VALUES + [None]:
        y = INF if right is None else ExtReal(right)
        key = lambda v: (v is None, v or 0)
        want_lt, want_eq = key(left) < key(right), left == right
        others = [y] if right is None else [y, right] + ([int(right)] if right.denominator == 1 else [])
        for other in others:
            assert (x < other, x <= other, x > other, x >= other) == (
                want_lt, want_lt or want_eq, not (want_lt or want_eq), not want_lt
            )
            assert (x == other, x != other) == (want_eq, not want_eq)
        total = None if left is None or right is None else left + right
        assert x + y == (INF if total is None else ExtReal(total))
        if right is not None:
            assert x + right == x + y


@pytest.mark.parametrize("text", ["inf", "1/2", "0", "x"])
def test_extreal_orders_no_string(text):
    """A str is not coerced: every ordering raises, == is False and + raises,
    whatever the text reads.  The constructor still parses strings."""
    for x in (ExtReal(F(1, 2)), INF):
        for op in (
            lambda: x < text,
            lambda: x <= text,
            lambda: x > text,
            lambda: x >= text,
            lambda: text < x,
            lambda: x + text,
        ):
            with pytest.raises(TypeError):
                op()
        assert not x == text and x != text
    assert ExtReal("inf") == INF and ExtReal("1/2") == F(1, 2)


def test_line_grid_keeps_both_ends():
    assert grid(0, 1, "1/4").points == ("0", "1/4", "1/2", "3/4", "1")
    assert grid(-1, -1, 1).points == ("-1",)


@pytest.mark.parametrize("lo, hi, step", [(0, 1, "2/3"), (0, 1, 0), (0, 1, "-1/2"), (1, 0, 1)])
def test_line_grid_rejects_bad_grids(lo, hi, step):
    with pytest.raises(StructuralError):
        grid(lo, hi, step)


def test_space_json_roundtrip():
    s = grid(0, 1, "1/4")
    again = FiniteMetricSpace.from_json(s.to_json())
    assert again == s


# ---------------------------------------------------------------------------
# Classification


def brute_classify(space):
    n = space.size
    d = space.d
    laws = {
        "refl": all(d(i, i) == ZERO for i in range(n)),
        "symm": all(d(i, j) == d(j, i) for i in range(n) for j in range(n)),
        "trans": all(
            d(i, j) <= d(i, k) + d(k, j)
            for i in range(n)
            for k in range(n)
            for j in range(n)
        ),
        "trans_star": all(
            not (d(i, j) > d(i, k) and d(i, j) > d(k, j))
            for i in range(n)
            for k in range(n)
            for j in range(n)
        ),
        "refl_star": all(
            d(i, i) <= min(d(i, j) for j in range(n)) for i in range(n)
        ),
    }
    return laws


SPACES = {
    "grid": grid(0, 1, "1/2"),
    "discrete": FiniteMetricSpace(["a", "b"], [[0, 1], [1, 0]]),
    "partial": FiniteMetricSpace(
        ["t", "s", "u"],
        [[0, F(1, 2), 1], [F(1, 2), 0, 1], [1, 1, 1]],
    ),
    "asym": FiniteMetricSpace(["a", "b"], [[0, 1], [F(1, 2), 0]]),
}


@pytest.mark.parametrize("name", sorted(SPACES))
def test_classify_matches_brute_laws(name):
    space = SPACES[name]
    laws = brute_classify(space)
    cls = classify_space(space)
    assert cls.premetric == (laws["refl"] and laws["symm"])
    assert cls.metric == (laws["refl"] and laws["symm"] and laws["trans"])
    assert cls.ultrametric == (laws["refl"] and laws["symm"] and laws["trans_star"])
    assert cls.partial_ultrametric == (
        laws["symm"] and laws["trans_star"] and laws["refl_star"]
    )


def test_partial_space_classes():
    cls = classify_space(SPACES["partial"])
    assert cls.partial_ultrametric and not cls.metric and not cls.premetric


# ---------------------------------------------------------------------------
# Hom distances


def maps_on(a, b, fn_f, fn_g):
    """Two maps between line grids, given by value."""
    index = {F(q): j for j, q in enumerate(b.points)}
    f = PointMap(a, b, tuple(index[fn_f(F(p))] for p in a.points))
    g = PointMap(a, b, tuple(index[fn_g(F(p))] for p in a.points))
    return f, g


def test_phi_of_shift_is_shift():
    a = grid(0, 2, "1/4")
    b = grid(0, 3, "1/4")
    f, g = maps_on(a, b, lambda p: p, lambda p: p + 1)
    assert hom_distance("phi", a, b, f, g) == ExtReal(F(1))


def test_xi_matches_delta_scan_oracle():
    a = grid(0, 2, "1/4")
    b = grid(0, 3, "1/4")
    cases = [
        (lambda p: p, lambda p: p + 1),
        (lambda p: p, lambda p: F(2) - p),
        (lambda p: min(p, 1), lambda p: p),
        (lambda p: p, lambda p: p),
        (lambda p: F(0), lambda p: min(p, F(1, 2))),
    ]
    for fn_f, fn_g in cases:
        f, g = maps_on(a, b, fn_f, fn_g)
        assert hom_distance("xi", a, b, f, g) == xi_oracle(a, b, f, g)


def test_xi_prime_threshold_oracle():
    a = grid(0, 1, "1/4")
    b = grid(0, 2, "1/4")
    f, g = maps_on(a, b, lambda p: p, lambda p: p + F(1, 2))
    got = hom_distance("xi_prime", a, b, f, g)
    fi, gi = f.indices, g.indices
    best = None
    for delta in sorted({ZERO} | b.values()):
        if all(
            b.d(fi[x], gi[y]) <= delta
            for x in range(a.size)
            for y in range(a.size)
            if a.d(x, y) <= delta
        ):
            best = delta
            break
    assert got == best


def test_theta_zero_only_on_equal_tables():
    a = grid(0, 1, "1/2")
    f, g = maps_on(a, a, lambda p: p, lambda p: p)
    assert hom_distance("theta", a, a, f, g) == ZERO
    f, g = maps_on(a, a, lambda p: p, lambda p: min(p, F(1, 2)))
    assert hom_distance("theta", a, a, f, g) == ExtReal(F(1))


def test_hom_distance_rejects_expansive_maps():
    a = grid(0, 1, "1/2")
    b = grid(0, 2, "1/2")
    f = PointMap(a, b, tuple(2 * i for i in range(a.size)))  # p |-> 2p
    with pytest.raises(PreconditionError):
        hom_distance("phi", a, b, f, f)
    # f's non-expansiveness is checked before g's endpoints
    elsewhere = PointMap(a, a, (0, 1, 2))
    with pytest.raises(PreconditionError, match="hom_distance requires non-expansive maps"):
        hom_distance("phi", a, b, f, elsewhere)
    identity = PointMap(a, b, (0, 1, 2))
    with pytest.raises(PreconditionError, match="hom_distance requires non-expansive maps"):
        hom_distance("phi", a, b, identity, f)


def test_point_map_holds_codomain_indices():
    a, b = grid(0, 1, "1/2"), grid(0, 2, "1/2")
    f = PointMap(a, b, (0, 2, 4))
    assert f.table == ("0", "1", "2") and f.apply("1/2") == "1"
    for bad in [(0, 2, 5), (0, -1, 4), (0, True, 4), (0, "1", 4), (0, 1.0, 4), (0, None, 4)]:
        with pytest.raises(StructuralError, match="is not a codomain index"):
            PointMap(a, b, bad)
    for bad in [(0, 2), (0, 2, 4, 4), ()]:
        with pytest.raises(StructuralError, match="length does not match domain size"):
            PointMap(a, b, bad)


SHIFT_PARAMS = [(F(10), k) for k in (F(1, 4), F(1, 2), F(1))] + [
    (m, F(1, 2)) for m in (F(1), F(2), F(4), F(8))
]


@pytest.mark.parametrize("m, k", SHIFT_PARAMS)
def test_shift_maps_agree_with_the_maps_by_value(m, k):
    """The index tables name the same points as p |-> p and p |-> p + k."""
    a, b, f, g = shift_maps(m, k, F(1, 4))
    assert f.table == tuple(str(F(p)) for p in a.points)
    assert g.table == tuple(str(F(p) + k) for p in a.points)


def test_shift_maps_need_a_whole_number_of_steps():
    with pytest.raises(StructuralError):
        shift_maps(F(2), F(1, 8), F(1, 4))


def test_theta_xi_maps_agree_with_the_maps_by_value():
    a, b, f, g = theta_xi_maps()
    assert f.table == tuple(str(F(p)) for p in a.points)
    assert g.table == tuple(str(F(p) if F(p) <= 0 else F(p) / 2) for p in a.points)


@st.composite
def ultrametric_space(draw):
    n = draw(st.integers(2, 5))
    labels = [
        tuple(draw(st.integers(0, 1)) for _ in range(3)) for _ in range(n)
    ]
    def dist(u, v):
        for k in range(3):
            if u[k] != v[k]:
                return ExtReal(F(1, 2**k))
        return ZERO
    points = [f"p{i}" for i in range(n)]
    rows = [[dist(labels[i], labels[j]) for j in range(n)] for i in range(n)]
    return FiniteMetricSpace(tuple(points), tuple(tuple(r) for r in rows))


@st.composite
def metric_subgrid(draw):
    picks = draw(st.sets(st.integers(0, 8), min_size=2, max_size=5))
    vals = sorted(F(k, 4) for k in picks)
    points = tuple(str(v) for v in vals)
    rows = tuple(
        tuple(ExtReal(abs(p - q)) for q in vals) for p in vals
    )
    return FiniteMetricSpace(points, rows)


@settings(max_examples=40, deadline=None)
@given(metric_subgrid(), st.data())
def test_theta_geq_xi_geq_phi(a, data):
    maps = enumerate_nonexpansive(a, a)
    f = data.draw(st.sampled_from(maps))
    g = data.draw(st.sampled_from(maps))
    phi = hom_distance("phi", a, a, f, g)
    xi = hom_distance("xi", a, a, f, g)
    theta = hom_distance("theta", a, a, f, g)
    assert phi <= xi <= theta or xi == ZERO
    assert phi <= theta


@settings(max_examples=40, deadline=None)
@given(ultrametric_space(), st.data())
def test_ultrametric_codomain_collapses_xi_to_phi(b, data):
    a = FiniteMetricSpace(["x", "y"], [[0, 1], [1, 0]])
    maps = enumerate_nonexpansive(a, b)
    f = data.draw(st.sampled_from(maps))
    g = data.draw(st.sampled_from(maps))
    assert hom_distance("xi", a, b, f, g) == hom_distance("phi", a, b, f, g)


# ---------------------------------------------------------------------------
# Exponentiability


def brute_exp_full(space):
    """Midpoint existence over a dense set of rational decompositions."""
    n = space.size
    for i in range(n):
        for j in range(n):
            total = space.d(i, j)
            if total.is_infinite:
                continue
            t = total.value
            for num in range(0, 17):
                alpha = t * F(num, 16)
                beta = t - alpha
                if not any(
                    space.d(i, k).value <= alpha
                    and space.d(k, j).value <= beta
                    for k in range(n)
                    if not space.d(i, k).is_infinite and not space.d(k, j).is_infinite
                ):
                    return False
    return True


@pytest.mark.parametrize(
    "space,ok",
    [
        (grid(0, 1, "1/4"), False),
        (grid(0, 1, 1), False),
        (grid(0, 4, 1), False),
        (FiniteMetricSpace(["a"], [[0]]), True),
    ],
)
def test_exp_check_full_matches_brute_midpoints(space, ok):
    assert check_exponentiable(space, "full").ok == ok
    assert brute_exp_full(space) == ok


def test_exp_check_image_restricted_grids_pass():
    for step in ("1/4", "1/8"):
        assert check_exponentiable(grid(0, 1, step), "image_restricted").ok


def test_exp_check_two_point_witness():
    res = check_exponentiable(grid(0, 1, 1), "full")
    assert not res.ok
    x0, x2, alpha, beta = res.witness
    assert {x0, x2} == {"0", "1"}
    assert alpha == beta == ExtReal(F(1, 2))
    assert check_exponentiable(grid(0, 1, 1), "image_restricted").ok


def test_exp_check_requires_metric():
    with pytest.raises(PreconditionError):
        check_exponentiable(SPACES["partial"], "full")


# ---------------------------------------------------------------------------
# By-definition ExtReal oracles.  These are the ExtReal implementations
# that the integer kernel replaced, read through the public d(), values()
# and points; the kernel must agree with them on random spaces with
# mixed denominators and infinite entries.

UNITS = (F(1, 3), F(1, 4), F(2, 5), F(1, 7))


def _ext_max(values):
    out = ZERO
    for v in values:
        if out < v:
            out = v
    return out


def classify_oracle(space):
    n, d = space.size, space.d
    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    refl = all(d(i, i) == ZERO for i in range(n))
    symm = all(d(i, j) == d(j, i) for i in range(n) for j in range(n))
    trans = all(d(i, j) <= d(i, k) + d(k, j) for i, j, k in triples)
    trans_star = all(d(i, j) <= _ext_max([d(i, k), d(k, j)]) for i, j, k in triples)
    refl_star = all(
        d(i, i) <= d(i, j) and d(j, j) <= d(i, j) for i in range(n) for j in range(n)
    )
    premetric = refl and symm
    return SpaceClass(
        premetric=premetric,
        metric=premetric and trans,
        ultrametric=premetric and trans_star,
        partial_ultrametric=symm and trans_star and refl_star,
    )


def nonexpansive_oracle(a, b):
    """Every table with b(f_i, f_j) <= a(i, j) for every ordered pair (i, j),
    the diagonal included, in product order."""
    pairs = [(i, j) for i in range(a.size) for j in range(a.size)]
    return [
        tuple(b.points[c] for c in idx)
        for idx in itertools.product(range(b.size), repeat=a.size)
        if all(b.d(idx[i], idx[j]) <= a.d(i, j) for i, j in pairs)
    ]


def hom_oracle(kind, a, b, f, g):
    fi, gi = f.indices, g.indices
    n = a.size
    pairs = [(a.d(x, y), b.d(fi[x], gi[y])) for x in range(n) for y in range(n)]
    if kind == "phi":
        return _ext_max(b.d(fi[x], gi[x]) for x in range(n))
    if kind == "xi":
        return _ext_max(bv for av, bv in pairs if av < bv)
    if kind == "xi_prime":
        for delta in sorted({ZERO} | b.values()):
            if all(bv <= delta for av, bv in pairs if av <= delta):
                return delta
        return INF
    return ZERO if f.table == g.table else _ext_max(bv for _, bv in pairs)


def _breakpoints_oracle(space, total):
    finite = sorted({v for v in space.values() if not v.is_infinite}, key=lambda v: v.value)
    t = total.value
    cands = {F(0), t / 2}
    for v in finite:
        cands.add(v.value)
        if t - v.value >= 0:
            cands.add(t - v.value)
    return [ExtReal(c) for c in sorted(c for c in cands if 0 <= c <= t)]


def exp_oracle(space, mode):
    if not classify_oracle(space).metric:
        raise PreconditionError("check_exponentiable requires a metric space")
    n = space.size
    image = space.values()
    for x0 in range(n):
        for x2 in range(n):
            total = space.d(x0, x2)
            if total.is_infinite:
                continue
            if mode == "full":
                alphas = _breakpoints_oracle(space, total)
            else:
                alphas = sorted(
                    (
                        v
                        for v in image
                        if not v.is_infinite
                        and v.value <= total.value
                        and ExtReal(total.value - v.value) in image
                    ),
                    key=lambda v: v.value,
                )
            for alpha in alphas:
                beta = ExtReal(total.value - alpha.value)
                if not any(
                    space.d(x0, x1) <= alpha and space.d(x1, x2) <= beta for x1 in range(n)
                ):
                    return ExpCheckResult(False, (space.points[x0], space.points[x2], alpha, beta))
    return ExpCheckResult(True)


_entry = st.one_of(
    st.just(INF),
    st.builds(lambda k, unit: ExtReal(k * unit), st.integers(0, 6), st.sampled_from(UNITS)),
)


@st.composite
def random_space(draw, max_points=6):
    """Any square matrix: asymmetric, non-zero diagonals and inf allowed."""
    n = draw(st.integers(1, max_points))
    rows = [[draw(_entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = ZERO
            for j in range(i):
                rows[i][j] = rows[j][i]
    return FiniteMetricSpace(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, rows)))


@st.composite
def random_metric(draw, max_points=6):
    """The shortest-path closure of random symmetric weights (inf allowed)."""
    n = draw(st.integers(1, max_points))
    d = [[None if i == j else draw(_entry) for j in range(n)] for i in range(n)]
    d = [[ZERO if i == j else d[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return FiniteMetricSpace(tuple(f"q{i}" for i in range(n)), tuple(map(tuple, d)))


@seed(20231)
@settings(max_examples=100, deadline=None)
@given(st.one_of(random_space(), random_metric()))
def test_classify_matches_extreal_oracle(space):
    assert classify_space(space) == classify_oracle(space)


@seed(20232)
@settings(max_examples=80, deadline=None)
@given(st.one_of(random_space(4), random_metric(4)), st.one_of(random_space(), random_metric()))
def test_enumerate_nonexpansive_matches_product_oracle(a, b):
    maps = enumerate_nonexpansive(a, b)
    assert [h.table for h in maps] == nonexpansive_oracle(a, b)
    # is_nonexpansive tests every ordered pair, the diagonal included
    for idx in itertools.islice(itertools.product(range(b.size), repeat=a.size), 50):
        h = PointMap(a, b, idx)
        want = all(
            b.d(idx[i], idx[j]) <= a.d(i, j) for i in range(a.size) for j in range(a.size)
        )
        assert h.is_nonexpansive() == want


@seed(20233)
@settings(max_examples=100, deadline=None)
@given(st.one_of(random_space(4), random_metric(4)), st.one_of(random_space(), random_metric()), st.data())
def test_hom_distances_match_extreal_oracles(a, b, data):
    maps = [h for h in enumerate_nonexpansive(a, b) if h.is_nonexpansive()]
    assume(maps)
    f = data.draw(st.sampled_from(maps))
    g = data.draw(st.sampled_from(maps))
    for kind in ("phi", "xi", "xi_prime", "theta"):
        assert hom_distance(kind, a, b, f, g) == hom_oracle(kind, a, b, f, g), kind
    assert hom_distance("xi", a, b, f, g) == xi_oracle(a, b, f, g)


@seed(20234)
@settings(max_examples=120, deadline=None)
@given(st.one_of(random_metric(), random_space()))
def test_exp_check_matches_extreal_oracle_and_brute_witness(space):
    for mode in ("full", "image_restricted"):
        try:
            want = exp_oracle(space, mode)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                check_exponentiable(space, mode)
            continue
        got = check_exponentiable(space, mode)
        assert got == want
        if not got.ok:
            x0, x2, alpha, beta = got.witness
            i, j = space.index(x0), space.index(x2)
            assert alpha + beta == space.d(i, j)
            assert not any(
                space.d(i, k) <= alpha and space.d(k, j) <= beta for k in range(space.size)
            )
            if mode == "image_restricted":
                assert {alpha, beta} <= space.values()


@seed(20235)
@settings(max_examples=100, deadline=None)
@given(
    st.integers(-3, 3),
    st.sampled_from(UNITS + (F(1), F(3, 2))),
    st.integers(0, 12),
)
def test_line_grid_integers_are_absolute_differences(lo, step, count):
    space = grid(lo, lo + count * step, step)
    pts = [F(p) for p in space.points]
    assert pts == [lo + i * step for i in range(count + 1)]
    dens = [abs(p - q).denominator for p in pts for q in pts]
    assert space.scale == math.lcm(*dens)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert F(space.m[i][j], space.scale) == abs(p - q)


@seed(20236)
@settings(max_examples=80, deadline=None)
@given(st.one_of(random_space(), random_metric()))
def test_space_keeps_extreal_rows_and_json_round_trip(space):
    rows = space.dist
    assert FiniteMetricSpace(space.points, rows) == space
    assert space.values() == {v for row in rows for v in row}
    assert all(space.d(i, j) == v for i, row in enumerate(rows) for j, v in enumerate(row))
    data = space.to_json()
    assert data["dist"] == [[v.render() for v in row] for row in rows]
    again = FiniteMetricSpace.from_json(json.loads(json.dumps(data)))
    assert again == space and hash(again) == hash(space)
    finite = [v.value for row in rows for v in row if not v.is_infinite]
    assert space.scale == math.lcm(*(v.denominator for v in finite))


def oracle_normalize(rows, scale):
    """The integer rows and scale divided by their gcd, taken over every
    finite entry one by one."""
    g = math.gcd(scale, *(v for row in rows for v in row if v != math.inf))
    return tuple(tuple(v if v == math.inf else v // g for v in row) for row in rows), scale // g


def oracle_line_grid(lo, hi, step):
    """(points, m, scale) of the grid by definition: m[i][j] is
    |i - j| * step at the step's denominator, entry by entry, normalized."""
    n = int((hi - lo) / step) + 1
    rows = [[abs(i - j) * step.numerator for j in range(n)] for i in range(n)]
    m, scale = oracle_normalize(rows, step.denominator)
    return tuple(str(lo + i * step) for i in range(n)), m, scale


def test_line_grid_matches_the_entrywise_oracle():
    steps = [F(1, 2**j) for j in range(5)] + [F(3, 2)]
    for lo, step, count in itertools.product(range(-3, 4), steps, range(13)):
        lo = F(lo)
        space = grid(lo, lo + count * step, step)
        assert (space.points, space.m, space.scale) == oracle_line_grid(lo, lo + count * step, step)


def test_space_divides_out_the_gcd_of_its_finite_entries():
    inf = math.inf
    rows = ((0, 6, inf), (6, 0, 9), (inf, 9, 0))
    space = FiniteMetricSpace(("a", "b", "c"), rows, 12)
    assert (space.m, space.scale) == oracle_normalize(rows, 12) == (
        ((0, 2, inf), (2, 0, 3), (inf, 3, 0)),
        4,
    )
    assert space.d(0, 2) == INF and space.d(1, 2) == ExtReal(F(3, 4))
    # no finite entry but 0: the scale divides itself out
    rows = ((0, inf), (inf, 0))
    apart = FiniteMetricSpace(("a", "b"), rows, 6)
    assert (apart.m, apart.scale) == oracle_normalize(rows, 6) == (rows, 1)
    assert FiniteMetricSpace((), (), 5).scale == 1


def test_scale_is_canonical_across_constructions():
    halves = FiniteMetricSpace(("a", "b"), ((ZERO, ExtReal(F(2, 4))), (ExtReal(F(1, 2)), ZERO)))
    assert halves.scale == 2 and halves.m == ((0, 1), (1, 0))
    assert halves == FiniteMetricSpace(("a", "b"), ((0, 2), (2, 0)), 4)
    thirds = FiniteMetricSpace(("a", "b", "c"), ((0, 3, 6), (3, 0, 3), (6, 3, 0)), 12)
    assert thirds.scale == 4 and thirds.m == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert FiniteMetricSpace(("a",), ((INF,),)).m == ((math.inf,),)
    assert grid(0, 0, F(1, 3)).scale == 1


def test_enumerate_nonexpansive_is_not_bounded_by_the_recursion_limit():
    a = grid(0, 1100, 1)
    one = FiniteMetricSpace(["p"], [[0]])
    (only,) = enumerate_nonexpansive(a, one)
    assert only.table == ("p",) * a.size
    assert [h.table for h in enumerate_nonexpansive(one, a)] == [(p,) for p in a.points]
    # two points 2 apart: no shortcut, the search backtracks through every position
    ends = grid(0, 2, 2)
    assert [h.table for h in enumerate_nonexpansive(a, ends)] == [
        (p,) * a.size for p in ends.points
    ]


ONE_POINT = FiniteMetricSpace(["p"], [[0]])
SELF_FAR = FiniteMetricSpace(["a", "b"], [[0, 1], [1, 1]])  # d(b, b) = 1
ASYMMETRIC = FiniteMetricSpace(["a", "b"], [[0, 1], [2, 0]])


@pytest.mark.parametrize(
    "a, b, count",
    [
        (ONE_POINT, remark25_space(), 2),  # not p |-> u: u is 1 from itself
        (remark25_space(), remark25_space(), 12),
        (SELF_FAR, SELF_FAR, 2),
        (ONE_POINT, SELF_FAR, 1),
        (ASYMMETRIC, ASYMMETRIC, 3),
        (ASYMMETRIC, SELF_FAR, 1),
        (SELF_FAR, ASYMMETRIC, 2),
    ],
)
def test_enumerate_nonexpansive_tests_every_ordered_pair(a, b, count):
    """A point may sit at a positive distance from itself, and a distance
    need not be symmetric: the enumeration lists exactly the maps that
    is_nonexpansive accepts, and hom_distance takes each of them."""
    maps = enumerate_nonexpansive(a, b)
    assert [h.table for h in maps] == nonexpansive_oracle(a, b)
    assert len(maps) == count
    for f in maps:
        hom_distance("phi", a, b, f, f)  # raises on a map it refuses
