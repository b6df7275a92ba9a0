import importlib
import itertools

import numpy as np
import pytest

from sdcyclic import (
    CodeSpec,
    RIdealGens,
    XPoly,
    basis_convert,
    build_code,
    classify_cases,
    count_self_dual,
    descriptor_codes,
    descriptor_count,
    enumerate_codes,
    find_irreducible,
    is_self_dual,
    sample_codes,
    solution_basis,
    to_negacyclic,
)
from sdcyclic.counting import CASE_EVEN_K, CASE_K0, CASE_ODD_K
from sdcyclic.enumerator import (
    BLOCK_CODES,
    BLOCK_ENTRIES,
    _decode_block,
    _family_blocks,
    _family_plan,
    _generators,
    _locate,
    _stream_blocks,
)
from sdcyclic.chainring import _self_dual_failure
from sdcyclic.reciprocal import XM1_TO_STD

from oracles import canonical_form, span_element


def _ideal_from_k_and_b(field, s, k, b_coeffs):
    """Two-generator shape for arbitrary k and b, built without the
    solution-basis machinery; used for brute-force completeness."""
    n = field.p**s
    zero = field.zero()
    shifted = [zero] * n
    for i, c in enumerate(b_coeffs):
        shifted[k + 1 + i] = c
    a_std = basis_convert(field, shifted, XM1_TO_STD)
    u_xm1 = [zero] * n
    u_xm1[k] = field.one()
    u_std = basis_convert(field, u_xm1, XM1_TO_STD)
    g1 = tuple(zip(a_std, u_std))
    if k == 0:
        return RIdealGens(field=field, ring_sign=1, generators=(g1,))
    c_xm1 = [zero] * n
    c_xm1[n - k] = field.one()
    g2 = tuple((c, zero) for c in basis_convert(field, c_xm1, XM1_TO_STD))
    return RIdealGens(field=field, ring_sign=1, generators=(g1, g2))


# -- case classification -------------------------------------------------------

def test_classify_3_1():
    descs = classify_cases(3, 1)
    assert [(d.sub, d.nu, d.k) for d in descs] == [(CASE_EVEN_K, 0, 0), (CASE_ODD_K, 0, 1)]
    assert all(d.free_param_count == 0 for d in descs)
    assert all(d.branch == 3 for d in descs)


def test_classify_3_2():
    descs = classify_cases(3, 2)
    assert [d.k for d in descs] == [0, 2, 4, 1, 3]
    assert [d.sub for d in descs] == [CASE_K0, CASE_EVEN_K, CASE_EVEN_K, CASE_ODD_K, CASE_ODD_K]
    assert [d.free_param_count for d in descs] == [2, 1, 0, 1, 0]
    assert all(d.branch == 1 for d in descs)


def test_classify_5_1():
    descs = classify_cases(5, 1)
    assert [(d.sub, d.k, d.free_param_count) for d in descs] == [
        (CASE_K0, 0, 1),
        (CASE_EVEN_K, 2, 0),
        (CASE_ODD_K, 1, 0),
    ]


def test_classify_rejects():
    with pytest.raises(ValueError):
        classify_cases(2, 1)
    with pytest.raises(ValueError):
        classify_cases(15, 1)
    with pytest.raises(ValueError):
        classify_cases(3, 0)


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)])
def test_k_coverage_and_derived_fields(p, s):
    n = p**s
    descs = classify_cases(p, s)
    assert sorted(d.k for d in descs) == list(range((n - 1) // 2 + 1))
    for d in descs:
        assert d.l == n - 1 - 2 * d.k
        assert d.delta == (n - 1) // 2 - d.k
        assert d.t == n - 2 * d.k
        assert d.free_param_count == max(0, (d.l + 1) // 2 - (d.delta + 1) // 2)
        lo, hi = d.j_range
        assert d.free_param_count == max(0, hi - lo + 1)


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1), (11, 1)])
def test_j_ranges_match_reference_branch_formulas(p, s):
    n = p**s
    for d in classify_cases(p, s):
        if d.branch == 3:
            if d.sub == CASE_EVEN_K:
                expected = ((n + 1) // 4 - d.nu + 1, (n + 1) // 2 - 2 * d.nu - 1)
            else:
                expected = ((n + 1) // 4 - d.nu, (n + 1) // 2 - 2 * d.nu - 2)
        else:
            if d.sub == CASE_K0:
                expected = ((n - 1) // 4 + 1, (n - 1) // 2)
            elif d.sub == CASE_EVEN_K:
                expected = ((n - 1) // 4 - d.nu + 1, (n - 1) // 2 - 2 * d.nu)
            else:
                expected = ((n - 1) // 4 - d.nu + 2, (n - 1) // 2 - 2 * d.nu + 1)
        assert d.j_range == expected, d


@pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)])
def test_family_sizes_match_reference_exponents(p, s):
    n = p**s
    for d in classify_cases(p, s):
        if d.branch == 3:
            expected = (n + 1) // 4 - 1 - d.nu
        elif d.sub == CASE_K0:
            expected = (n - 1) // 4
        else:
            expected = (n - 1) // 4 - d.nu
        assert d.free_param_count == expected


# -- golden construction at length 9 ------------------------------------------

def test_build_length9_k0_coefficients(f3):
    desc = [d for d in classify_cases(3, 2) if d.k == 0][0]
    for a4 in range(3):
        for a6 in range(3):
            code = build_code(desc, ((a4,), (a6,)), f3)
            tail = code.b_coeffs.coeffs[4:]
            expected = (
                ((2 * a4) % 3,),
                (a4 % 3,),
                ((2 * a6) % 3,),
                ((a4 + 2 * a6) % 3,),
            )
            assert tail == expected
            assert code.b_coeffs.coeffs[:4] == ((0,),) * 4
            assert len(code.generators.generators) == 1


def test_build_length9_k2_is_2a2_times_square(f3):
    desc = [d for d in classify_cases(3, 2) if d.k == 2][0]
    code = build_code(desc, ((1,),), f3)  # a_2 = 1
    assert code.b_coeffs.coeffs == ((0,), (0,), (2,), (0,))
    assert len(code.generators.generators) == 2


def test_build_length9_k1_coefficients(f3):
    desc = [d for d in classify_cases(3, 2) if d.k == 1][0]
    code = build_code(desc, ((1,),), f3)  # a_4 = 1
    assert code.b_coeffs.coeffs == ((0,), (0,), (0,), (0,), (2,), (1,))


def test_build_length9_zero_param_generators(f3):
    # k = 4: <u(x-1)^4, (x-1)^5>;  k = 3: <u(x-1)^3, (x-1)^6>
    by_k = {d.k: d for d in classify_cases(3, 2)}
    for k in (4, 3):
        code = build_code(by_k[k], (), f3)
        assert code.generators == _ideal_from_k_and_b(f3, 2, k, [])
        assert code.b_coeffs.l == 9 - 1 - 2 * k


def _build_code_per_code(desc, params, field):
    """The construction without a per-family plan: a fresh solution
    basis and a full-length basis conversion for every code."""
    norm = tuple(field.element(a) for a in params)
    if desc.l > 0:
        tail = span_element(field, solution_basis(field, desc.l, desc.delta), norm)
        b = XPoly(field, desc.l, (field.zero(),) * desc.delta + tail)
    else:
        b = XPoly(field, 0, ())
    return CodeSpec(desc, norm, b, _ideal_from_k_and_b(field, desc.s, desc.k, b.coeffs))


@pytest.mark.parametrize("p,m,s", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2)])
def test_build_code_matches_per_code_construction(p, m, s):
    field = find_irreducible(p, m)
    for desc in classify_cases(p, s):
        for combo in itertools.product(field.elements(), repeat=desc.free_param_count):
            assert build_code(desc, combo, field) == _build_code_per_code(desc, combo, field)


def test_family_plans_are_bounded():
    for _ in enumerate_codes(3, 1, 3):
        pass
    info = _family_plan.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 8


def test_build_rejects_wrong_param_count(f3):
    desc = classify_cases(3, 2)[0]
    with pytest.raises(ValueError):
        build_code(desc, ((1,),), f3)
    with pytest.raises(ValueError):
        build_code(desc, ((1,), (1,), (1,)), f3)


def test_build_rejects_wrong_field(f5):
    desc = classify_cases(3, 2)[0]
    with pytest.raises(ValueError):
        build_code(desc, ((1,), (1,)), f5)


# -- golden solution bases at length 27 ----------------------------------------
# Reference basis-column tables for p = 3, keyed (l, delta), tabulated
# independently of the library; -1 written as 2.

LENGTH27_BASIS_TABLE = {
    (4, 2): [(2, (2, 0))],
    (6, 3): [(3, (0, 2, 1))],
    (8, 4): [(3, (2, 1, 0, 1)), (4, (0, 0, 2, 2))],
    (10, 5): [(4, (0, 2, 2, 1, 0)), (5, (0, 0, 0, 2, 0))],
    (12, 6): [(4, (2, 2, 1, 0, 0, 0)), (5, (0, 0, 2, 0, 0, 0)), (6, (0, 0, 0, 0, 2, 1))],
    (14, 7): [(5, (0, 2, 0, 0, 0, 0, 0)), (6, (0, 0, 0, 2, 1, 0, 2)), (7, (0, 0, 0, 0, 0, 2, 2))],
    (16, 8): [
        (5, (2, 0, 0, 0, 0, 0, 0, 0)),
        (6, (0, 0, 2, 1, 0, 2, 2, 0)),
        (7, (0, 0, 0, 0, 2, 2, 1, 1)),
        (8, (0, 0, 0, 0, 0, 0, 2, 0)),
    ],
    (18, 9): [
        (6, (0, 2, 1, 0, 2, 2, 0, 1, 1)),
        (7, (0, 0, 0, 2, 2, 1, 1, 2, 1)),
        (8, (0, 0, 0, 0, 0, 2, 0, 0, 1)),
        (9, (0, 0, 0, 0, 0, 0, 0, 2, 1)),
    ],
    (20, 10): [
        (6, (2, 1, 0, 2, 2, 0, 1, 1, 0, 1)),
        (7, (0, 0, 2, 2, 1, 1, 2, 1, 0, 0)),
        (8, (0, 0, 0, 0, 2, 0, 0, 1, 0, 0)),
        (9, (0, 0, 0, 0, 0, 0, 2, 1, 0, 0)),
        (10, (0, 0, 0, 0, 0, 0, 0, 0, 2, 2)),
    ],
    (22, 11): [
        (7, (0, 2, 2, 1, 1, 2, 1, 0, 0, 0, 1)),
        (8, (0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0)),
        (9, (0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0)),
        (10, (0, 0, 0, 0, 0, 0, 0, 2, 2, 1, 2)),
        (11, (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0)),
    ],
    (24, 12): [
        (7, (2, 2, 1, 1, 2, 1, 0, 0, 0, 1, 2, 1)),
        (8, (0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 1)),
        (9, (0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0)),
        (10, (0, 0, 0, 0, 0, 0, 2, 2, 1, 2, 1, 2)),
        (11, (0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2)),
        (12, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1)),
    ],
    (26, 13): [
        (8, (0, 2, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0)),
        (9, (0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
        (10, (0, 0, 0, 0, 0, 2, 2, 1, 2, 1, 2, 1, 2)),
        (11, (0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0)),
        (12, (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 1)),
        (13, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2)),
    ],
}


@pytest.mark.parametrize("l,delta", sorted(LENGTH27_BASIS_TABLE))
def test_length27_basis_columns_match_reference_tables(f3, l, delta):
    basis = solution_basis(f3, l, delta)
    jmin = (delta + 1) // 2 + 1
    got = {j: tuple(col) for j, col in enumerate(np.asarray(basis).T.tolist(), jmin)}
    expected = dict(LENGTH27_BASIS_TABLE[(l, delta)])
    assert got == expected


def test_length27_reference_linear_forms(f3):
    # two spot checks of reference combined coefficient rows
    by_k = {d.k: d for d in classify_cases(3, 3)}
    # k = 8 (even family): (b_5..b_9) = (0, 2a_6, 2a_6, a_6 + 2a_8, 0)
    code = build_code(by_k[8], ((1,), (1,)), f3)
    assert code.b_coeffs.coeffs[5:] == ((0,), (2,), (2,), (0,), (0,))
    # k = 7 (odd family): (b_6..b_11) = (2a_6, 2a_6, a_6 + 2a_8, 0, 2a_10, a_10)
    code = build_code(by_k[7], ((1,), (0,), (2,)), f3)
    assert code.b_coeffs.coeffs[6:] == ((2,), (2,), (1,), (0,), (1,), (2,))


# -- enumeration and counting ---------------------------------------------------

def test_enumerate_3_1_1_exact_codes(f3):
    codes = list(enumerate_codes(3, 1, 1))
    assert len(codes) == 2
    got = {canonical_form(c.generators) for c in codes}
    expected = {
        canonical_form(_ideal_from_k_and_b(f3, 1, 0, [])),  # <u>
        canonical_form(_ideal_from_k_and_b(f3, 1, 1, [])),  # <u(x-1), (x-1)^2>
    }
    assert got == expected


@pytest.mark.parametrize(
    "p,m,s,expected",
    [(3, 1, 1, 2), (3, 2, 1, 2), (3, 5, 1, 2), (3, 1, 2, 17), (3, 1, 3, 2186), (3, 2, 2, 101), (5, 1, 1, 7), (7, 1, 1, 16)],
)
def test_count_closed_form(p, m, s, expected):
    assert count_self_dual(p, m, s) == expected


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_count_consistency_with_families(p, m, s):
    total = sum(descriptor_count(d, m) for d in classify_cases(p, s))
    assert total == count_self_dual(p, m, s)


def test_enumeration_count_matches_formula():
    assert sum(1 for _ in enumerate_codes(3, 1, 2)) == 17
    assert sum(1 for _ in enumerate_codes(5, 1, 1)) == 7


@pytest.mark.parametrize("p,m,s", [(3, 1, 2), (3, 2, 1), (5, 1, 1)])
def test_enumerate_from_start_index_is_a_suffix(p, m, s):
    full = list(enumerate_codes(p, m, s))
    for start in range(len(full) + 2):
        assert list(enumerate_codes(p, m, s, start=start)) == full[start:]


SMALL_FIELDS = [(p, m) for p in (3, 5, 7, 11) for m in (1, 2, 3, 4) if p**m <= 125] + [
    (p, 1) for p in (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)
]


def _decoded(field, width, start, count):
    """The parameter tuples the block decoder gives for a window."""
    return [tuple(zip(*[iter(row)] * field.m)) for row in _decode_block(field, width, start, count)]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_parameter_odometer_follows_field_order(p, m):
    field = find_irreducible(p, m)
    elems = list(field.elements())
    assert _decoded(field, 1, 0, len(elems)) == [(e,) for e in elems]
    if p**m <= 25:
        pairs = list(itertools.product(elems, repeat=2))
        for start in (0, 1, len(elems) - 1, len(elems), len(pairs) - 1):
            assert _decoded(field, 2, start, len(pairs) - start) == pairs[start:]


def _base_q_params(field, width, index):
    """The parameters of one in-family index, by Python integer division."""
    digits = []
    for _ in range(width):
        index, d = divmod(index, field.order)
        coeffs = []
        for _ in range(field.m):
            d, c = divmod(d, field.p)
            coeffs.append(c)
        digits.append(tuple(reversed(coeffs)))
    return tuple(reversed(digits))


@pytest.mark.parametrize("p,m,width", [(3, 1, 182), (3, 2, 40), (5, 1, 90), (2039, 1, 20)])
def test_block_decoder_is_exact_at_huge_indices(p, m, width):
    field = find_irreducible(p, m)
    top = field.order**width
    for start in (min(10**40, top) - 3, top // 2 - 300, top - 300, field.order**7 - 5):
        count = min(300, top - start)
        got = _decoded(field, width, start, count)
        assert got == [_base_q_params(field, width, start + i) for i in range(count)]


def test_blocks_stay_within_the_cap():
    sizes = [len(b.params) for b in _stream_blocks(3, 1, 3)]
    assert sum(sizes) == count_self_dual(3, 1, 3)
    assert max(sizes) == BLOCK_CODES  # reached, never passed
    field = find_irreducible(3, 3)
    desc = classify_cases(3, 6)[0]  # N = 729, m = 3: 119 codes per block
    blocks = itertools.islice(_family_blocks([desc], field, 0), 9)
    sizes = [len(b.params) for b in blocks]
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 119, 119]
    assert BLOCK_ENTRIES // (729 * 3) == 119


def test_blocks_start_small():
    # the first block holds one code, so the first line needs one product
    first = next(_stream_blocks(3, 1, 4, start=5))
    assert [len(row) for row in first.params] == [classify_cases(3, 4)[0].free_param_count]


def _as_tuples(rows):
    """The verifier's rows with every coordinate a tuple of ints."""
    return rows._replace(generators=tuple(tuple(tuple(map(tuple, part)) for part in g) for g in rows.generators))


@pytest.mark.parametrize("p,m,s", [(3, 2, 3), (5, 1, 2), (131, 1, 1), (257, 1, 1)])
@pytest.mark.parametrize("ring_sign", [1, -1])
def test_the_verifier_reads_the_block_rows_as_built(p, m, s, ring_sign):
    """Block rows are ``bytes`` below p = 256 (2-byte packed slots at
    p = 5 and 131) and tuples above, and the verifier is handed the
    block's own coordinates.  On them it answers exactly as on tuple
    copies, also for a row with one coefficient changed, which is not
    self-dual: a misread ``bytes`` would show as a different answer."""
    block = next(_stream_blocks(p, m, s, start=3, ring_sign=ring_sign, stop=6))
    kind = bytes if p < 256 else tuple
    assert {type(coord) for a in block.a for coord in a} | {type(coord) for coord in block.u} == {kind}
    rows = list(_generators(block))
    for a, row in zip(block.a, rows):
        assert row.generators[0][0] is a and row.generators[0][1] is block.u
        assert block.second is None or row.generators[1][0] is block.second
    first, upart = rows[0].generators[0]
    coord = list(first[0])
    coord[1] = (coord[1] + 1) % p
    changed = rows[0]._replace(generators=(((kind(coord),) + first[1:], upart),) + rows[0].generators[1:])
    for row in rows + [changed]:
        assert is_self_dual(row, s) == is_self_dual(_as_tuples(row), s) == (row is not changed)
        assert _self_dual_failure(row, s) == _self_dual_failure(_as_tuples(row), s)
    assert _self_dual_failure(changed, s) is not None


def test_locate_reads_the_counts_up_to_the_family_found():
    counts = [3, 0, 1, 5]
    stream = [(f, i) for f, count in enumerate(counts) for i in range(count)]
    assert [_locate(counts, index) for index in range(len(stream))] == stream
    assert _locate(counts, 9) == (4, 0) and _locate(counts, 12) == (4, 3)
    read = []
    assert _locate((read.append(c) or c for c in counts), 3) == (2, 0)
    assert read == [3, 0, 1]


def test_enumerate_rejects_negative_start():
    with pytest.raises(ValueError, match="start"):
        next(enumerate_codes(3, 1, 1, start=-1))


def test_enumeration_is_deterministic():
    first = [c.params for c in enumerate_codes(3, 1, 2)]
    second = [c.params for c in enumerate_codes(3, 1, 2)]
    assert first == second
    # lexicographic parameter order inside each family
    assert first[:4] == [((0,), (0,)), ((0,), (1,)), ((0,), (2,)), ((1,), (0,))]


def test_distinctness_via_canonical_forms():
    for p, m, s in [(3, 1, 2), (5, 1, 1), (3, 2, 1)]:
        forms = [canonical_form(c.generators) for c in enumerate_codes(p, m, s)]
        assert len(set(forms)) == len(forms) == count_self_dual(p, m, s)


@pytest.mark.parametrize(
    "p,m,s",
    [(3, 1, 1), (3, 1, 2), (3, 2, 1), (3, 2, 2), (5, 1, 1), (5, 2, 1), (7, 1, 1), (7, 2, 1)],
)
def test_soundness_every_code_verifies(p, m, s):
    for code in enumerate_codes(p, m, s):
        assert is_self_dual(code.generators, s)


@pytest.mark.parametrize("p,s", [(3, 1), (5, 1)])
def test_completeness_brute_force(p, s):
    field = find_irreducible(p, 1)
    n = p**s
    survivors = set()
    for k in range((n - 1) // 2 + 1):
        l = n - 1 - 2 * k
        delta = (n - 1) // 2 - k
        for tail in itertools.product(field.elements(), repeat=l - delta):
            b = [field.zero()] * delta + list(tail)
            gens = _ideal_from_k_and_b(field, s, k, b)
            if is_self_dual(gens, s):
                survivors.add(canonical_form(gens))
    enumerated = {canonical_form(c.generators) for c in enumerate_codes(p, 1, s)}
    assert survivors == enumerated


# -- negacyclic carry-over -------------------------------------------------------

def test_negacyclic_of_constant_generator(f3):
    code = next(iter(enumerate_codes(3, 1, 1)))  # <u>
    img = to_negacyclic(code)
    assert img.ring_sign == -1
    assert img.generators == code.generators.generators  # constant is unchanged
    assert is_self_dual(img, 1)


def test_negacyclic_sign_flip_values(f3):
    codes = {c.descriptor.k: c for c in enumerate_codes(3, 1, 1)}
    img = to_negacyclic(codes[1])  # <u(x-1), (x-1)^2>
    g1, g2 = img.generators
    assert [v[1] for v in g1] == [(2,), (2,), (0,)]  # u-part of u(-x-1)
    assert [v[0] for v in g2] == [(1,), (2,), (1,)]  # (-x-1)^2
    assert is_self_dual(img, 1)


@pytest.mark.parametrize("p,m,s", [(3, 1, 1), (3, 1, 2)])
def test_negacyclic_images_self_dual_and_counted(p, m, s):
    forms = set()
    total = 0
    for code in enumerate_codes(p, m, s):
        img = to_negacyclic(code)
        assert is_self_dual(img, s)
        forms.add(canonical_form(img))
        total += 1
    assert total == len(forms) == count_self_dual(p, m, s)


def _to_negacyclic_per_element(code):
    """The flip ``to_negacyclic`` made before the sign mask: one
    ``field.neg`` per odd-degree coefficient."""
    field = code.generators.field
    flipped = tuple(
        tuple((a, b) if d % 2 == 0 else (field.neg(a), field.neg(b)) for d, (a, b) in enumerate(g))
        for g in code.generators.generators
    )
    return RIdealGens(field=field, ring_sign=-1, generators=flipped)


@pytest.mark.parametrize("p,m,s", [(3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2), (3, 3, 1), (5, 2, 1)])
def test_sign_mask_equals_per_element_flip(p, m, s):
    codes = enumerate_codes(p, m, s)
    for code in itertools.islice(codes, 3000):
        assert to_negacyclic(code) == _to_negacyclic_per_element(code)


def _assert_blocks_are_flipped_codes(p, m, s):
    field = find_irreducible(p, m)
    cyclic = list(enumerate_codes(p, m, s))
    rows = [
        (block.desc, a, block.u, block.second, gens)
        for block in _stream_blocks(p, m, s, ring_sign=-1)
        for a, gens in zip(block.a, _generators(block))
    ]
    assert len(rows) == len(cyclic) == count_self_dual(p, m, s)
    for code, (desc, a, u, second, gens) in zip(cyclic, rows):
        image = to_negacyclic(code)
        assert desc == code.descriptor
        as_tuples = tuple(tuple(zip(zip(*main), zip(*upart))) for main, upart in gens.generators)
        assert as_tuples == image.generators and gens.ring_sign == image.ring_sign == -1
        assert image.generators[0] == tuple(zip(zip(*a), zip(*u)))
        if second is None:
            assert len(image.generators) == 1
        else:
            assert image.generators[1] == tuple((c, field.zero()) for c in zip(*second))


def test_negacyclic_blocks_are_flipped_codes():
    # the block flip (the CLI's) and ``to_negacyclic`` agree on every code
    for p, m, s in [(3, 1, 3), (5, 1, 2), (3, 2, 2), (3, 3, 1)]:
        _assert_blocks_are_flipped_codes(p, m, s)


# -- sampling ---------------------------------------------------------------------

def test_sampling_reproducible_and_sound():
    first = [c.params for c in sample_codes(3, 1, 3, 8, seed=123)]
    second = [c.params for c in sample_codes(3, 1, 3, 8, seed=123)]
    assert first == second
    other_seed = [c.params for c in sample_codes(3, 1, 3, 8, seed=124)]
    assert first != other_seed
    for code in sample_codes(3, 1, 2, 5, seed=7):
        assert is_self_dual(code.generators, 2)


def test_zero_parameter_families(f3):
    for desc in classify_cases(3, 2):
        if desc.free_param_count == 0:
            (code,) = descriptor_codes(desc, f3)
            assert code == build_code(desc, (), f3) == _build_code_per_code(desc, (), f3)
            assert code.params == ()


@pytest.mark.parametrize("p,m,s", [(3, 1, 3), (3, 2, 2)])
def test_stream_crosses_block_boundaries(p, m, s):
    # every code of the stream, from each start, against the per-code
    # construction; starts chosen so windows begin on and next to block
    # and family boundaries
    field = find_irreducible(p, m)
    oracle = [
        _build_code_per_code(desc, combo, field)
        for desc in classify_cases(p, s)
        for combo in itertools.product(field.elements(), repeat=desc.free_param_count)
    ]
    for start in (0, 1, 2, 3, 6, 7, 8, 254, 255, 256, 510, 511, 512, len(oracle) - 1):
        got = list(itertools.islice(enumerate_codes(p, m, s, start=start), 700))
        assert got == oracle[start : start + 700]


def test_descriptor_codes_streams_in_order(f3):
    desc = [d for d in classify_cases(3, 2) if d.k == 2][0]
    params = [c.params for c in descriptor_codes(desc, f3)]
    assert params == [((0,),), ((1,),), ((2,),)]


# -- array caches stay bounded

def _array_caches():
    """Every ``lru_cache`` of the package, by qualified name."""
    out = {}
    for name in ("fieldcore", "binomial", "gmatrix", "reciprocal", "enumerator", "chainring", "cli"):
        module = importlib.import_module(f"sdcyclic.{name}")
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                out[f"{name}.{attr}"] = value
    tables = {"binomial._factorials", "gmatrix.g_truncated", "reciprocal._conv_rows"}
    assert tables | {"chainring._t_adic_rows", "chainring._fold_weights"} <= set(out)
    return out


def test_every_cache_is_bounded_after_a_sweep_of_lengths():
    caches = _array_caches()
    assert all(fn.cache_info().maxsize is not None for fn in caches.values())
    for p, s in [(3, 5), (5, 3), (7, 3), (11, 2), (13, 2), (3, 6), (5, 4)]:
        field = find_irreducible(p, 1)
        desc = classify_cases(p, s)[0]
        build_code(desc, [field.zero()] * desc.free_param_count, field)
        assert is_self_dual(to_negacyclic(build_code(desc, [field.one()] * desc.free_param_count, field)), s)
    for name, fn in caches.items():
        info = fn.cache_info()
        assert info.currsize <= info.maxsize, name
