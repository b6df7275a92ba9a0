"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s`` to see
the lines as they complete; they also appear in captured output."""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from sdcyclic import (
    RIdealGens,
    XPoly,
    basis_convert,
    build_code,
    build_g_direct,
    build_g_kron,
    classify_cases,
    count_self_dual,
    descriptor_codes,
    descriptor_count,
    enumerate_codes,
    find_irreducible,
    g_truncated,
    is_self_dual,
    solution_basis,
    to_negacyclic,
)
from sdcyclic.reciprocal import XM1_TO_STD

from oracles import canonical_form, iter_span, kernel_oracle, reciprocal_oracle, reciprocal_transform, rref_rank

G3_DISPLAY = [[1, 0, 0], [2, 2, 0], [1, 2, 1]]
G9_DISPLAY = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0],
    [2, 2, 0, 0, 0, 0, 0, 0, 0],
    [1, 2, 1, 0, 0, 0, 0, 0, 0],
    [2, 0, 0, 2, 0, 0, 0, 0, 0],
    [1, 1, 0, 1, 1, 0, 0, 0, 0],
    [2, 1, 2, 2, 1, 2, 0, 0, 0],
    [1, 0, 0, 2, 0, 0, 1, 0, 0],
    [2, 2, 0, 1, 1, 0, 2, 2, 0],
    [1, 2, 1, 2, 1, 2, 1, 2, 1],
]


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


def test_criterion_1_golden_matrices():
    with criterion(1, "reference order-3 and order-9 matrices reproduced exactly"):
        start = time.perf_counter()
        assert np.array_equal(build_g_direct(3, 1), G3_DISPLAY)
        assert np.array_equal(build_g_kron(3, 2), G9_DISPLAY)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_involution_and_ranks():
    with criterion(2, "involution up to order 343 and rank laws up to l = 125"):
        start = time.perf_counter()
        for p in (3, 5, 7):
            lam = 1
            while p**lam <= 343:
                g = np.asarray(build_g_kron(p, lam))
                assert np.array_equal(g @ g % p, np.eye(p**lam, dtype=np.int64)), (p, lam)
                lam += 1
        for p in (3, 5):
            for l in range(1, 126):
                g = g_truncated(p, l)
                i = np.eye(l, dtype=np.int64)
                assert rref_rank(p, g - i) == l // 2, (p, l)
                assert rref_rank(p, g + i) == (l + 1) // 2, (p, l)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_reciprocal_oracle_equivalence():
    with criterion(3, "matrix transform equals the polynomial oracle"):
        checked = 0
        for p in (3, 5, 7):
            for m in (1, 2):
                field = find_irreducible(p, m)
                l = 1
                while field.order**l <= 100_000:
                    for combo in itertools.product(field.elements(), repeat=l):
                        b = XPoly(field, l, combo)
                        assert reciprocal_transform(b) == reciprocal_oracle(b)
                        checked += 1
                    l += 1
        assert checked > 250_000
        rng = random.Random(2024)
        fields = {(p, m): find_irreducible(p, m) for p in (3, 5, 7) for m in (1, 2)}
        for _ in range(1000):
            field = fields[(rng.choice((3, 5, 7)), rng.choice((1, 2)))]
            l = rng.randint(1, 50)
            elems = list(field.elements())
            b = XPoly(field, l, tuple(rng.choice(elems) for _ in range(l)))
            assert reciprocal_transform(b) == reciprocal_oracle(b)


def test_criterion_4_kernel_and_basis_equivalence():
    with criterion(4, "solution-basis span equals the brute-force kernel; truncated sizes"):
        for p, lmax in ((3, 8), (5, 6)):
            field = find_irreducible(p, 1)
            for l in range(1, lmax + 1):
                brute = set(kernel_oracle(field, l))
                spanned = set(iter_span(field, solution_basis(field, l, 0)))
                assert spanned == brute, (p, l)
        # cardinality law via the rank of the stacked basis vectors
        for p in (3, 5):
            for m in (1, 2):
                field = find_irreducible(p, m)
                for l in range(1, 13):
                    for delta in range(l):
                        basis = np.asarray(solution_basis(field, l, delta), dtype=np.int64)
                        dim = (l + 1) // 2 - (delta + 1) // 2
                        assert basis.shape == (l - delta, dim)
                        if dim:
                            assert rref_rank(p, basis.T) == dim, (p, m, l, delta)
                        # hence |span| = (p^m)^dim


def test_criterion_5_counts():
    with criterion(5, "closed-form counts and family-sum consistency"):
        for m in range(1, 6):
            assert count_self_dual(3, m, 1) == 2
        assert count_self_dual(3, 1, 2) == 17
        assert count_self_dual(3, 1, 3) == 2186
        assert count_self_dual(3, 2, 2) == 3**4 + 2 * 3**2 + 2 == 101
        for p in (3, 5, 7):
            for s in (1, 2, 3):
                for m in (1, 2, 3):
                    total = sum(descriptor_count(d, m) for d in classify_cases(p, s))
                    assert total == count_self_dual(p, m, s), (p, m, s)


def test_criterion_6_golden_code_lists():
    with criterion(6, "reference length-3 and length-9 code families match"):
        field = find_irreducible(3, 1)
        # length 3: exactly <u> and <u(x-1), (x-1)^2>
        codes = list(enumerate_codes(3, 1, 1))
        assert len(codes) == 2
        u_gen = tuple(
            (field.zero(), field.one() if i == 0 else field.zero()) for i in range(3)
        )
        expect_u = RIdealGens(field=field, ring_sign=1, generators=(u_gen,))
        xm1 = basis_convert(field, (field.zero(), field.one(), field.zero()), XM1_TO_STD)
        sq = basis_convert(field, (field.zero(), field.zero(), field.one()), XM1_TO_STD)
        expect_two = RIdealGens(
            field=field,
            ring_sign=1,
            generators=(
                tuple((field.zero(), c) for c in xm1),
                tuple((c, field.zero()) for c in sq),
            ),
        )
        got = {canonical_form(c.generators) for c in codes}
        assert got == {canonical_form(expect_u), canonical_form(expect_two)}
        # length 9, torsion-free family: reference basis columns and span
        basis = np.asarray(solution_basis(field, 8, 4))
        assert basis.T.tolist() == [[2, 1, 0, 1], [0, 0, 2, 2]]
        desc = [d for d in classify_cases(3, 2) if d.k == 0][0]
        for a4, a6 in itertools.product(range(3), repeat=2):
            code = build_code(desc, ((a4,), (a6,)), field)
            expected_tail = (
                ((2 * a4) % 3,),
                (a4,),
                ((2 * a6) % 3,),
                ((a4 + 2 * a6) % 3,),
            )
            assert code.b_coeffs.coeffs[4:] == expected_tail


def test_criterion_7_soundness_independent_verifier():
    with criterion(7, "every enumerated code passes the independent verifier"):
        start = time.perf_counter()
        for p, m, s in [(3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1), (7, 1, 1)]:
            for code in enumerate_codes(p, m, s):
                assert is_self_dual(code.generators, s), (p, m, s, code.descriptor)
        field = find_irreducible(3, 1)
        for desc in classify_cases(3, 3):
            for code in itertools.islice(descriptor_codes(desc, field), 200):
                assert is_self_dual(code.generators, 3), desc
        assert time.perf_counter() - start < 300.0


def test_criterion_8_completeness_at_desk_scale():
    with criterion(8, "exhaustive generator-shape filter recovers exactly the enumeration"):
        for p, s in [(3, 1), (5, 1)]:
            field = find_irreducible(p, 1)
            n = p**s
            survivors = set()
            for k in range((n - 1) // 2 + 1):
                l = n - 1 - 2 * k
                delta = (n - 1) // 2 - k
                for tail in itertools.product(field.elements(), repeat=l - delta):
                    coeffs = [field.zero()] * n
                    for i, c in enumerate(list((field.zero(),) * delta + tail)):
                        coeffs[k + 1 + i] = c
                    a_std = basis_convert(field, coeffs, XM1_TO_STD)
                    u_xm1 = [field.zero()] * n
                    u_xm1[k] = field.one()
                    u_std = basis_convert(field, u_xm1, XM1_TO_STD)
                    g1 = tuple(zip(a_std, u_std))
                    if k == 0:
                        gens = RIdealGens(field=field, ring_sign=1, generators=(g1,))
                    else:
                        c_xm1 = [field.zero()] * n
                        c_xm1[n - k] = field.one()
                        g2 = tuple((c, field.zero()) for c in basis_convert(field, c_xm1, XM1_TO_STD))
                        gens = RIdealGens(field=field, ring_sign=1, generators=(g1, g2))
                    if is_self_dual(gens, s):
                        survivors.add(canonical_form(gens))
            enumerated = {canonical_form(c.generators) for c in enumerate_codes(p, 1, s)}
            assert survivors == enumerated, (p, s)


def test_criterion_9_negacyclic():
    with criterion(9, "negacyclic images are self-dual mod x^N + 1 and counted"):
        for p, m, s in [(3, 1, 1), (3, 1, 2)]:
            forms = set()
            count = 0
            for code in enumerate_codes(p, m, s):
                image = to_negacyclic(code)
                assert image.ring_sign == -1
                assert is_self_dual(image, s)
                forms.add(canonical_form(image))
                count += 1
            assert count == len(forms) == count_self_dual(p, m, s)
