import random
import time

import pytest

from sdcyclic import FieldSpec, find_irreducible, is_prime
from sdcyclic.fieldcore import (
    MAX_EXTENSION_DEGREE,
    MILLER_RABIN_BOUND,
    _is_irreducible,
    _pack,
    _pgcd,
    _ppowmod,
    _psub,
    _residue_bytes,
    _residues,
)


def test_find_irreducible_goldens():
    assert find_irreducible(3, 1).modulus == (0, 1)  # plain x
    assert find_irreducible(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    assert find_irreducible(5, 2).modulus == (2, 0, 1)  # x^2 + 2


def test_find_irreducible_deterministic():
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 2), (7, 2)]:
        assert find_irreducible(p, m).modulus == find_irreducible(p, m).modulus


def test_find_irreducible_rejects_bad_arguments():
    with pytest.raises(ValueError):
        find_irreducible(2, 1)
    with pytest.raises(ValueError):
        find_irreducible(9, 1)
    with pytest.raises(ValueError):
        find_irreducible(3, 0)


def test_fieldspec_validation():
    with pytest.raises(ValueError):
        FieldSpec(3, 2, [0, 0, 1])  # x^2 is reducible
    with pytest.raises(ValueError):
        FieldSpec(3, 2, [1, 1, 1])  # x^2 + x + 1 has root 1 mod 3
    with pytest.raises(ValueError):
        FieldSpec(3, 2, [1, 0, 2])  # not monic
    with pytest.raises(ValueError):
        FieldSpec(3, 2, [1, 1])  # wrong degree
    with pytest.raises(ValueError):
        FieldSpec(4, 1, [0, 1])


def test_f3_examples(f3):
    assert f3.add((2,), (2,)) == (1,)
    assert f3.inv((2,)) == (2,)
    assert f3.neg((1,)) == (2,)


def test_f9_x_squared_is_minus_one(f9):
    x = f9.element([0, 1])
    assert f9.mul(x, x) == (2, 0)


def test_inv_zero_is_reported(f3, f9):
    with pytest.raises(ZeroDivisionError):
        f3.inv(f3.zero())
    with pytest.raises(ZeroDivisionError):
        f9.inv(f9.zero())


def test_element_coercion(f9):
    assert f9.element([5, -1]) == (2, 2)
    assert f9.element([1]) == (1, 0)
    assert f9.element([-1]) == (2, 0)
    with pytest.raises(ValueError):
        f9.element([1, 2, 3])


def test_enumeration_order_and_counts(f3, f9, f25):
    assert list(f3.elements()) == [(0,), (1,), (2,)]
    e9 = list(f9.elements())
    assert len(e9) == 9 and len(set(e9)) == 9
    assert e9[0] == (0, 0) and e9[-1] == (2, 2)
    assert sum(1 for _ in f25.elements()) == 25


SMALL_FIELDS = [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (11, 2)]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    # every field with order <= 125: commutativity, inverses, and the
    # multiplicative group order, checked over all elements
    field = find_irreducible(p, m)
    assert field.order <= 125
    elems = list(field.elements())
    one = field.one()
    for a in elems:
        for b in elems:
            assert field.mul(a, b) == field.mul(b, a)
        if any(a):
            assert field.mul(a, field.inv(a)) == one
            assert field.pow(a, field.order - 1) == one


def test_field_associativity_and_distributivity_sampled(f9, f25):
    rng = random.Random(7)
    for field in (f9, f25):
        elems = list(field.elements())
        for _ in range(300):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert field.mul(a, field.mul(b, c)) == field.mul(field.mul(a, b), c)
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))


def test_pow_negative_exponent(f9):
    x = f9.element([0, 1])
    assert f9.mul(f9.pow(x, -1), x) == f9.one()


def test_f27_frobenius_fixed_field():
    # x -> x^p fixes exactly the prime subfield
    field = find_irreducible(3, 3)
    fixed = [a for a in field.elements() if field.pow(a, 3) == a]
    assert sorted(fixed) == sorted(field.element([c]) for c in range(3))


def test_is_prime():
    assert [n for n in range(25) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]


def _is_prime_by_trial_division(n):
    """The trial division ``is_prime`` used before Miller-Rabin, kept as
    its oracle."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_agrees_with_trial_division():
    assert all(is_prime(n) == _is_prime_by_trial_division(n) for n in range(200_000))


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to bases 2 ... 23
        318665857834031151167461,  # psi_12: strong pseudoprime to bases 2 ... 37
    ],
)
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)


def test_is_prime_of_large_primes():
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime((2**31 - 1) * (10**9 + 7))


def test_is_prime_refuses_beyond_its_bound():
    with pytest.raises(ValueError, match=str(MILLER_RABIN_BOUND)):
        is_prime(MILLER_RABIN_BOUND)
    with pytest.raises(ValueError, match="primality"):
        FieldSpec(MILLER_RABIN_BOUND + 2, 1, [0, 1])


# -- the modulus search: Ben-Or's test against Rabin's

def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _is_irreducible_rabin(f, p):
    """Rabin's test, which ``fieldcore._is_irreducible`` replaced, kept as
    its oracle: x^(p^m) = x mod f, and gcd(x^(p^(m/q)) - x, f) = 1 for
    every prime q | m."""
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    h = x
    for _ in range(m):
        h = _ppowmod(h, p, f, p)
    if _psub(h, x, p):
        return False
    for q in _prime_divisors(m):
        h = x
        for _ in range(m // q):
            h = _ppowmod(h, p, f, p)
        if len(_pgcd(_psub(h, x, p), f, p)) > 1:
            return False
    return True


def _monic(value, p, m):
    return tuple((value // p**i) % p for i in range(m)) + (1,)


def _irreducible_count(p, m):
    """Gauss's count of monic irreducibles of degree m: the sum over
    d | m of mu(d) p^(m/d), over m."""
    def mu(n):
        primes = _prime_divisors(n)
        square_free = all(n % (q * q) for q in primes)
        return (-1) ** len(primes) if square_free else 0

    return sum(mu(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0) // m


@pytest.mark.parametrize("p,m", [(3, 2), (3, 4), (3, 6), (3, 7), (5, 3), (5, 4), (7, 3), (7, 4), (11, 2), (11, 3)])
def test_ben_or_classifies_every_monic_polynomial_as_rabin(p, m):
    verdicts = [_is_irreducible(_monic(v, p, m), p) for v in range(p**m)]
    assert verdicts == [_is_irreducible_rabin(_monic(v, p, m), p) for v in range(p**m)]
    assert sum(verdicts) == _irreducible_count(p, m)


def test_find_irreducible_picks_the_rabin_scan_modulus():
    for p in (3, 5, 7, 11):
        m = 1
        while p**m <= 200_000:
            expected = next(f for v in range(p**m) if _is_irreducible_rabin(f := _monic(v, p, m), p))
            assert find_irreducible(p, m).modulus == expected, (p, m)
            m += 1


def test_find_irreducible_at_the_degree_bound_is_fast():
    start = time.perf_counter()
    field = find_irreducible(3, MAX_EXTENSION_DEGREE)
    assert time.perf_counter() - start < 10
    assert field.m == MAX_EXTENSION_DEGREE and _is_irreducible_rabin(field.modulus, 3)


def test_find_irreducible_refuses_degrees_above_the_bound():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="MAX_EXTENSION_DEGREE"):
        find_irreducible(3, MAX_EXTENSION_DEGREE + 1)
    with pytest.raises(ValueError, match="MAX_EXTENSION_DEGREE"):
        find_irreducible(3, 10**9)
    assert time.perf_counter() - start < 0.1


def test_find_irreducible_at_a_huge_prime_skips_the_binomials():
    # p = 3 (mod 4) and 4 | m: no x^m + c is irreducible, and there are
    # about p of them, so the scan must not start with them
    p = 10**18 + 3
    start = time.perf_counter()
    field = find_irreducible(p, 16)
    assert time.perf_counter() - start < 10
    assert any(field.modulus[1:-1]) and _is_irreducible_rabin(field.modulus, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 61, 127, 131, 251, 257])
@pytest.mark.parametrize("width", [1, 2, 4])
def test_residue_bytes_equal_the_residues(p, width):
    """The translated reduction against ``_residues``: every slot at 0,
    at the top of its width and at random, over counts up to 300, and a
    set bit above the last slot cut as ``_residues`` cuts it."""
    rng = random.Random(f"{p}:{width}")
    top = (1 << 8 * width) - 1
    for count in (0, 1, 2, 3, 7, 64, 300):
        edges = [min(top, rng.choice((0, p - 1, p, top - 1, top))) for _ in range(count)]
        randoms = [rng.randrange(top + 1) for _ in range(count)]
        for values in ([0] * count, [top] * count, edges, randoms):
            x = _pack(values, width)
            for extra in (0, rng.randrange(1, 1 << 20) << 8 * width * count):
                got = _residue_bytes(x + extra, count, width, p)
                want = _residues(x + extra, count, width, p)
                assert type(got) is (bytes if p < 256 else tuple)
                assert list(got) == want == [v % p for v in values]


@pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
def test_pack_reads_bytes_one_value_a_byte(width):
    """A ``bytes`` or ``bytearray`` row packs as the list of its byte
    values at every width, as residue bytes from a block do."""
    values = [0, 1, 2, 127, 128, 254, 255, 7]
    want = _pack(values, width)
    assert want == sum(v << 8 * width * i for i, v in enumerate(values))
    assert _pack(bytes(values), width) == _pack(bytearray(values), width) == want
    assert _pack(bytes(values)[::-1], width) == _pack(values[::-1], width)
