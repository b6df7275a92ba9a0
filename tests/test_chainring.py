import ast
import itertools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from sdcyclic import (
    FieldSpec,
    RIdealGens,
    basis_convert,
    chainring,
    enumerate_codes,
    find_irreducible,
    is_self_dual,
    is_self_orthogonal,
    sample_codes,
    span_dimension,
    to_negacyclic,
)
from sdcyclic.fieldcore import _unpack, is_prime
from sdcyclic.reciprocal import XM1_TO_STD

from oracles import canonical_form, inner_product, orbit_rows, r_add, r_mul, r_neg, r_scale, reduction_rows, rref


def _relem(field, a, b=0):
    return (field.element([a]), field.element([b]))


def _const_gen(field, n, a, b=0):
    """Length-n vector for the constant polynomial a + u*b."""
    vec = [(field.zero(), field.zero())] * n
    vec[0] = _relem(field, a, b)
    return tuple(vec)


def _xm1_power_gen(field, n, e, u_part=False):
    """(x-1)^e (or u*(x-1)^e) as a length-n standard-basis vector."""
    coeffs = [field.zero()] * n
    coeffs[e] = field.one()
    std = basis_convert(field, coeffs, XM1_TO_STD)
    zero = field.zero()
    if u_part:
        return tuple((zero, c) for c in std)
    return tuple((c, zero) for c in std)


def test_r_mul_examples(f3):
    one_plus_u = _relem(f3, 1, 1)
    one_minus_u = _relem(f3, 1, 2)
    assert r_mul(f3, one_plus_u, one_minus_u) == _relem(f3, 1, 0)
    u = _relem(f3, 0, 1)
    assert r_mul(f3, u, u) == _relem(f3, 0, 0)
    a_plus_ub = _relem(f3, 2, 1)
    assert r_mul(f3, a_plus_ub, u) == (f3.zero(), f3.element([2]))  # u * a


def test_r_add_neg(f9):
    x = (f9.element([1, 2]), f9.element([0, 1]))
    y = (f9.element([2, 1]), f9.element([2, 2]))
    assert r_add(f9, x, y) == (f9.element([0, 0]), f9.element([2, 0]))
    assert r_add(f9, x, r_neg(f9, x)) == (f9.zero(), f9.zero())


def test_r_scale(f3):
    vec = (_relem(f3, 1, 1), _relem(f3, 2, 0))
    doubled = r_scale(f3, _relem(f3, 2), vec)
    assert doubled == (_relem(f3, 2, 2), _relem(f3, 1, 0))


def test_inner_product_examples(f3):
    ones = tuple(_relem(f3, 1) for _ in range(3))
    assert inner_product(f3, ones, ones) == _relem(f3, 0)  # 3 = 0 in char 3
    u_first = (_relem(f3, 0, 1),) + (_relem(f3, 0),) * 2
    assert inner_product(f3, u_first, u_first) == _relem(f3, 0)
    e1 = (_relem(f3, 1), _relem(f3, 0), _relem(f3, 0))
    e2 = (_relem(f3, 0), _relem(f3, 1), _relem(f3, 0))
    assert inner_product(f3, e1, e2) == _relem(f3, 0)
    with pytest.raises(ValueError):
        inner_product(f3, e1, e1 + e1)


def test_span_dimension_examples(f3):
    n = 3
    gens_u = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 0, 1),))
    assert span_dimension(gens_u) == 3
    gens_one = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 1),))
    assert span_dimension(gens_one) == 2 * n
    zero_gen = tuple((f3.zero(), f3.zero()) for _ in range(n))
    assert span_dimension(RIdealGens(field=f3, ring_sign=1, generators=(zero_gen,))) == 0


def test_self_orthogonality_examples(f3):
    n = 3
    gens_u = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 0, 1),))
    assert is_self_orthogonal(gens_u)
    gens_one = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 1),))
    assert not is_self_orthogonal(gens_one)
    two_gen = RIdealGens(
        field=f3,
        ring_sign=1,
        generators=(_xm1_power_gen(f3, n, 1, u_part=True), _xm1_power_gen(f3, n, 2)),
    )
    assert is_self_orthogonal(two_gen)


def test_self_dual_examples(f3):
    n = 3
    gens_u = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 0, 1),))
    assert is_self_dual(gens_u, 1)
    gens_one = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 1),))
    assert not is_self_dual(gens_one, 1)
    two_gen = RIdealGens(
        field=f3,
        ring_sign=1,
        generators=(_xm1_power_gen(f3, n, 1, u_part=True), _xm1_power_gen(f3, n, 2)),
    )
    assert is_self_dual(two_gen, 1)


def test_self_dual_length_mismatch(f3):
    gens = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, 3, 0, 1),))
    with pytest.raises(ValueError):
        is_self_dual(gens, 2)


def test_canonical_form_unit_multiples(f3):
    n = 3
    gu = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 0, 1),))
    g2u = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 0, 2),))
    assert canonical_form(gu) == canonical_form(g2u)


def test_canonical_form_separates_distinct_codes(f3):
    n = 3
    gu = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, n, 0, 1),))
    other = RIdealGens(
        field=f3,
        ring_sign=1,
        generators=(_xm1_power_gen(f3, n, 1, u_part=True), _xm1_power_gen(f3, n, 2)),
    )
    assert canonical_form(gu) != canonical_form(other)


def test_canonical_form_idempotent(f3):
    n = 3
    gens = RIdealGens(
        field=f3,
        ring_sign=1,
        generators=(_xm1_power_gen(f3, n, 1, u_part=True), _xm1_power_gen(f3, n, 2)),
    )
    form = canonical_form(gens)
    rebuilt_gens = tuple(
        tuple((row[i], row[n + i]) for i in range(n)) for row in form
    )
    rebuilt = RIdealGens(field=f3, ring_sign=1, generators=rebuilt_gens)
    assert canonical_form(rebuilt) == form


def test_negacyclic_ring_sign_changes_verdict(f3):
    # u*(x-1), (x-1)^2 is self-dual cyclically but not negacyclically
    n = 3
    gens = RIdealGens(
        field=f3,
        ring_sign=-1,
        generators=(_xm1_power_gen(f3, n, 1, u_part=True), _xm1_power_gen(f3, n, 2)),
    )
    assert not is_self_dual(gens, 1)


def test_extension_field_engine(f9):
    n = 3
    gens_u = RIdealGens(field=f9, ring_sign=1, generators=(_const_gen(f9, n, 0, 1),))
    assert span_dimension(gens_u) == 3
    assert is_self_dual(gens_u, 1)


def _shift_vec(vec, sign, field):
    last = vec[-1]
    if sign == -1:
        last = r_neg(field, last)
    return (last,) + vec[:-1]


def _all_codewords(gens):
    """Brute-force closure of the spanned ideal; smallest sizes only."""
    field = gens.field
    n = gens.n
    zero_vec = tuple((field.zero(), field.zero()) for _ in range(n))
    rows = []
    for g in gens.generators:
        ug = tuple((field.zero(), a) for a, _ in g)
        for base in (g, ug):
            cur = base
            for _ in range(n):
                rows.append(cur)
                cur = _shift_vec(cur, gens.ring_sign, field)
    words = {zero_vec}
    for row in rows:
        if row in words:
            continue
        scaled = [tuple(r_mul(field, (c, field.zero()), v) for v in row) for c in field.elements()]
        words = {tuple(r_add(field, w, s) for w, s in zip(word, sc)) for word in words for sc in scaled}
    return words


def _brute_force_dual(gens):
    field = gens.field
    code = _all_codewords(gens)
    zero = (field.zero(), field.zero())
    ambient = itertools.product(
        itertools.product(field.elements(), repeat=2), repeat=gens.n
    )
    return {v for v in ambient if all(inner_product(field, c, v) == zero for c in code)}


@pytest.mark.parametrize("make,expect_self_dual", [
    (lambda f: RIdealGens(field=f, ring_sign=1, generators=(_const_gen(f, 3, 0, 1),)), True),
    (
        lambda f: RIdealGens(
            field=f,
            ring_sign=1,
            generators=(_xm1_power_gen(f, 3, 1, u_part=True), _xm1_power_gen(f, 3, 2)),
        ),
        True,
    ),
    (lambda f: RIdealGens(field=f, ring_sign=1, generators=(_xm1_power_gen(f, 3, 1),)), False),
    (lambda f: RIdealGens(field=f, ring_sign=1, generators=(_const_gen(f, 3, 1),)), False),
    (
        # negacyclic ring: the x -> -x image of <u(x-1), (x-1)^2>
        lambda f: RIdealGens(
            field=f,
            ring_sign=-1,
            generators=(
                tuple((f.zero(), c) for c in (f.element([2]), f.element([2]), f.zero())),
                tuple((c, f.zero()) for c in (f.element([1]), f.element([2]), f.element([1]))),
            ),
        ),
        True,
    ),
])
def test_verifier_matches_definition_at_smallest_size(f3, make, expect_self_dual):
    # ground truth straight from the definition: C equals the set of all
    # ambient vectors orthogonal to every codeword
    gens = make(f3)
    code = _all_codewords(gens)
    dual = _brute_force_dual(gens)
    assert (code == dual) == expect_self_dual
    assert is_self_dual(gens, 1) == expect_self_dual
    assert len(code) == f3.order ** span_dimension(gens)


def test_rideal_validation(f3):
    with pytest.raises(ValueError):
        RIdealGens(field=f3, ring_sign=0, generators=(_const_gen(f3, 3, 1),))
    with pytest.raises(ValueError):
        RIdealGens(field=f3, ring_sign=1, generators=())
    with pytest.raises(ValueError):
        RIdealGens(
            field=f3,
            ring_sign=1,
            generators=(_const_gen(f3, 3, 1), _const_gen(f3, 4, 1)),
        )


def test_rideal_refuses_malformed_coefficients(f3, f9):
    # a coefficient of the wrong length would shift every later entry of
    # the verifier's array: (1, 2) here once read as a dimension-6 ideal
    zero = (f3.zero(), f3.zero())
    bad = [((1,), (0,)), ((1, 2), (0,)), zero]
    with pytest.raises(ValueError, match=r"coefficient \(1, 2\) is not a reduced F_3\^1 tuple"):
        RIdealGens(field=f3, ring_sign=1, generators=(tuple(bad),))
    for c in ((3,), (-1,), ()):
        with pytest.raises(ValueError, match=f"coefficient {re.escape(str(c))} is not a reduced"):
            RIdealGens(field=f3, ring_sign=-1, generators=(_const_gen(f3, 3, 1), ((c, (0,)), zero, zero)))
    with pytest.raises(ValueError, match=r"coefficient \(1,\) is not a reduced F_3\^2 tuple"):
        RIdealGens(field=f9, ring_sign=1, generators=((((1, 0), (1,)),),))
    with pytest.raises(ValueError, match="pairs"):
        RIdealGens(field=f3, ring_sign=1, generators=((((1,), (0,), (0,)), zero, zero),))


# -- the structured verifier against the dense orbit/rref oracle


def _dense_dimension(gens):
    return int(rref(gens.field, orbit_rows(gens)).shape[0])


def _field_dot(field, x, y):
    """[v, w] -> sum_n x[v, n] * y[w, n] over F_{p^m}, for (rows, n, m)
    arrays: one integer tensor product, then the y-degrees are folded."""
    p, m = field.p, field.m
    prod = np.einsum("vni,wnj->vwij", x, y)
    conv = np.zeros(prod.shape[:2] + (2 * m - 1,), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            conv[..., i + j] += prod[..., i, j]
    return (conv % p) @ reduction_rows(field) % p


def _dense_products(gens, against):
    """Main and u parts of <row, other> for every orbit row and every row
    in ``against``, straight from the expanded (a | b) coordinates."""
    n, p = gens.n, gens.field.p
    rows = orbit_rows(gens)
    ra, rb = rows[:, :n], rows[:, n:]
    oa, ob = against[:, :n], against[:, n:]
    main = _field_dot(gens.field, ra, oa)
    upart = (_field_dot(gens.field, ra, ob) + _field_dot(gens.field, rb, oa)) % p
    return main, upart


def _dense_self_orthogonal(gens):
    """Every pair of spanning rows is orthogonal: a Gram matrix over the
    whole expansion, with no appeal to shift invariance."""
    main, upart = _dense_products(gens, orbit_rows(gens))
    return not main.any() and not upart.any()


def _assert_matches_oracle(gens):
    assert span_dimension(gens) == _dense_dimension(gens)
    orthogonal = _dense_self_orthogonal(gens)
    assert is_self_orthogonal(gens) == orthogonal
    hit = chainring._orthogonality_failure(gens)
    if orthogonal:
        assert hit is None
        return
    # the reported entry is the first nonzero one, pairs j <= k in order,
    # shifts ascending, main part before u part
    n = gens.n
    main, upart = _dense_products(gens, orbit_rows(gens)[:: 2 * n])  # each g_k itself
    first = next(
        (i, j, k, "main" if main[2 * n * j + 2 * i, k].any() else "u")
        for j in range(len(gens.generators))
        for k in range(j, len(gens.generators))
        for i in range(n)
        if main[2 * n * j + 2 * i, k].any() or upart[2 * n * j + 2 * i, k].any()
    )
    assert hit == first


@pytest.mark.parametrize("p,m,s", [(3, 1, 1), (3, 1, 2), (5, 1, 1), (7, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1)])
def test_structured_verifier_matches_oracle_on_every_code(p, m, s):
    for code in enumerate_codes(p, m, s):
        for gens in (code.generators, to_negacyclic(code)):
            assert is_self_dual(gens, s)
            _assert_matches_oracle(gens)


@pytest.mark.parametrize("p,m,s,seed", [(3, 1, 3, 11), (5, 1, 2, 12)])
def test_structured_verifier_matches_oracle_on_sampled_codes(p, m, s, seed):
    for i, code in enumerate(sample_codes(p, m, s, 100, seed=seed)):
        gens = to_negacyclic(code) if i % 2 else code.generators
        assert is_self_dual(gens, s)
        _assert_matches_oracle(gens)


def _times_t(v, sign, p):
    """(x - sign) v in F_q[x]/(x^n - sign), on an (n, m) array."""
    shifted = np.roll(v, 1, axis=0)
    shifted[0] = sign * shifted[0]
    return (shifted - sign * v) % p


def _random_part(rng, field, n, sign):
    """t^e r for t = x - sign, with r sparse (one or two terms) or dense
    and e uniform in [0, n], so every valuation, zero included, occurs."""
    p, m = field.p, field.m
    r = np.zeros((n, m), dtype=np.int64)
    if rng.random() < 0.5:
        for j in rng.sample(range(n), min(n, rng.randint(1, 2))):
            r[j] = [rng.randrange(p) for _ in range(m)]
    else:
        r[:] = [[rng.randrange(p) for _ in range(m)] for _ in range(n)]
    for _ in range(rng.randint(0, n)):
        r = _times_t(r, sign, p)
    return r


def _random_ideal(rng, p, m, s, sign):
    field = find_irreducible(p, m)
    n = p**s
    gens = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.1:
            a = b = np.zeros((n, m), dtype=np.int64)
        else:
            a, b = _random_part(rng, field, n, sign), _random_part(rng, field, n, sign)
        gens.append(tuple((tuple(map(int, x)), tuple(map(int, y))) for x, y in zip(a, b)))
    return RIdealGens(field=field, ring_sign=sign, generators=tuple(gens))


def test_structured_verifier_matches_oracle_on_random_ideals():
    rng = random.Random(2019)
    shapes = [(3, 1, 1), (3, 1, 2), (5, 1, 1), (5, 1, 2), (7, 1, 1), (3, 2, 1), (3, 2, 2), (5, 2, 1), (3, 3, 1)]
    dims = set()
    for trial in range(500):
        p, m, s = shapes[trial % len(shapes)]
        gens = _random_ideal(rng, p, m, s, rng.choice((1, -1)))
        _assert_matches_oracle(gens)
        dims.add((gens.n, span_dimension(gens)))
    # the sample reaches zero, full and in-between dimensions at N = 9
    assert {(9, 0), (9, 18)} <= dims and len({d for n, d in dims if n == 9}) > 10


def test_span_dimension_scales_each_row_by_the_pivot_unit(f3):
    """Rows (2 t^2, t) and (t^2, c t) over F_3, N = 9: the reduced row
    2 (t^2, c t) - (2 t^2, t) = (0, (2c - 1) t) cancels only at c = 2, so
    the answer depends on scaling by the pivot's unit part w = 2."""
    n = 9
    for sign in (1, -1):
        def t_power(e, c):
            r = np.zeros((n, 1), dtype=np.int64)
            r[0] = c
            for _ in range(e):
                r = _times_t(r, sign, 3)
            return r

        for c, v2 in ((1, 1), (2, 2)):
            rows = ((t_power(2, 2), t_power(1, 1)), (t_power(2, 1), t_power(1, c)))
            gens = RIdealGens(
                field=f3,
                ring_sign=sign,
                generators=tuple(tuple((tuple(map(int, x)), tuple(map(int, y))) for x, y in zip(a, b)) for a, b in rows),
            )
            assert span_dimension(gens) == _dense_dimension(gens) == 2 * n - 2 - v2


def test_t_adic_conversion_is_pascal_with_signs():
    for sign in (1, -1):
        width, rows = chainring._t_adic_rows(5, 25, sign)
        for j in range(25):
            row = _unpack(rows[j], 25, width)
            for k in range(25):
                # x^j = (t + sign)^j
                want = math.comb(j, k) * sign ** (j - k) % 5 if k <= j else 0
                assert row[k] == want


def _convolve_oracle(field, x, y, length):
    """The first ``length`` coefficients of x*y over F_{p^m}, for (n, m)
    arrays of Python ints: one exact convolution per pair of
    coordinates, then the y-degrees folded by the reduction rows."""
    p, m = field.p, field.m
    n = len(x) + len(y) - 1
    # int64 while n*m*(p-1)^2 fits it, exact Python ints beyond
    kind = np.int64 if n * m * (p - 1) ** 2 < 2**62 else object
    x, y = x.astype(kind), y.astype(kind)
    conv = np.zeros((max(n, length), 2 * m - 1), dtype=kind)
    for i in range(m):
        for j in range(m):
            conv[:n, i + j] += np.convolve(x[:, i], y[:, j])
    return ((conv[:length] % p).dot(reduction_rows(field).astype(kind)) % p).astype(object)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def _width_boundaries(field, top):
    """The lengths n <= top at which the product's slot width grows."""
    return [n for n in range(2, top + 1) if chainring._width(field, n) != chainring._width(field, n - 1)]


@pytest.mark.parametrize(
    "p,m",
    # slot widths 1 -> 2 and 2 -> 4 bytes (p = 3, 101), 4 -> 8 (p near
    # 2^31 / 10), and 8 bytes -> the byte-string path (p near 2^63 / 10)
    [(3, 1), (3, 2), (101, 1), (101, 2), (_next_prime(14650), 1), (_next_prime(960_000_000), 1), (4294967311, 1)],
)
def test_packed_product_equals_convolve(p, m):
    """``_poly_mul`` (one big-int product) against an exact convolution,
    at random lengths and on both sides of every slot-width boundary up
    to length 9000."""
    field = find_irreducible(p, m) if m > 1 else FieldSpec(p, 1, [0, 1])
    rng = random.Random(f"{p}:{m}")
    edges = _width_boundaries(field, 9000)
    lengths = {n + d for n in edges for d in (-1, 0, 1)} | {1, 2} | {rng.randint(1, 400) for _ in range(5)}
    assert edges or p == 4294967311
    for n in sorted(lengths):
        x = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(n)], dtype=object)
        y = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(rng.choice((n, max(1, n // 2))))], dtype=object)
        for length in {n, len(x) + len(y) - 1}:
            got = chainring._poly_mul(field, tuple(map(tuple, x.T)), tuple(map(tuple, y.T)), length)
            assert np.array_equal(np.array(got, dtype=object).T, _convolve_oracle(field, x, y, length)), (n, length)


def test_chainring_is_independent_of_the_construction():
    tree = ast.parse(Path(chainring.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    banned = {"reciprocal", "gmatrix", "binomial", "enumerator"}
    assert not {name.rsplit(".", 1)[-1] for name in imported if name} & banned


def test_span_dimension_refuses_lengths_that_are_not_powers_of_p(f3):
    gens = RIdealGens(field=f3, ring_sign=1, generators=(_const_gen(f3, 4, 0, 1),))
    with pytest.raises(ValueError, match="not a power of p"):
        span_dimension(gens)
    # orthogonality is defined at every length
    assert is_self_orthogonal(gens)


def test_verifier_is_exact_beyond_int64():
    """No verifier sum is held in int64, so a prime whose (p-1)^2 alone
    exceeds 2^63 gets the exact answer too."""
    for p in (3037000493, 4294967311):
        field = FieldSpec(p, 1, [0, 1])
        for ring_sign in (1, -1):
            gens = RIdealGens(field=field, ring_sign=ring_sign, generators=(_const_gen(field, 1, 1),))
            assert span_dimension(gens) == 2 and not is_self_orthogonal(gens)
            assert chainring._self_dual_failure(gens, 0) == "not self-orthogonal: shift 0, generators (0, 0), main part"
            # u alone: u^2 = 0, and 1 of 2 dimensions, so self-dual at N = 1
            gens = RIdealGens(field=field, ring_sign=ring_sign, generators=(_const_gen(field, 1, 0, p - 1),))
            assert span_dimension(gens) == 1 and is_self_dual(gens, 0)


def test_canonical_form_refuses_int64_overflow():
    p = 4294967311
    field = FieldSpec(p, 1, [0, 1])
    gens = RIdealGens(field=field, ring_sign=1, generators=(_const_gen(field, 1, p - 1),))
    with pytest.raises(ValueError, match="int64"):
        canonical_form(gens)
    below = FieldSpec(3037000493, 1, [0, 1])
    gens = RIdealGens(field=below, ring_sign=1, generators=(_const_gen(below, 1, below.p - 1),))
    assert canonical_form(gens) == (((1,), (0,)), ((0,), (1,)))
