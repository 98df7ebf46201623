from fractions import Fraction

import pytest

from nonassoc.scalars import (GF, MAX_POWER_DEGREE, QQ, QT, DomainError, Poly, PolyRing,
                              RatFunc, _is_prime, parse_ratfunc)


def test_gf_arithmetic():
    F = GF(7)
    a = F.from_int(3)
    b = F.from_int(5)
    assert (a + b).v == 1
    assert (a * b).v == 1
    assert (a - b).v == 5
    assert (a / b).v == 2  # 3 * 5^{-1} = 3 * 3 = 9 = 2
    with pytest.raises(ZeroDivisionError):
        a / F.zero()


def test_gf_requires_prime():
    with pytest.raises(DomainError):
        GF(6)


def _trial_division_is_prime(n):
    """Reference: the trial division ``_is_prime`` used before."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if _is_prime(n)] == \
        [n for n in range(200_000) if _trial_division_is_prime(n)]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the bases 2, 3, 5, 7, to every prime base up to
    # 23 and to every prime base up to 37
    assert not _is_prime(3215031751) and 3215031751 == 151 * 751 * 28351
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert 318665857834031151167461 == 399165290221 * 798330580441
    assert _is_prime(2 ** 61 - 1) and _is_prime(2 ** 31 - 1) and not _is_prime(2 ** 61 + 1)
    GF(2 ** 61 - 1)
    # beyond the proven range the answer would only be probable
    with pytest.raises(DomainError, match="3317044064679887385961981"):
        _is_prime(2 ** 89 - 1)
    with pytest.raises(DomainError):
        GF(2 ** 89 - 1)


def test_ratfunc_parse_and_arith():
    t = RatFunc.t_power(1)
    assert parse_ratfunc("t^-1") == RatFunc.const(1) / t
    assert parse_ratfunc("(t^2+1)/t") == (t * t + 1) / t
    assert parse_ratfunc("3/2") == RatFunc.const(Fraction(3, 2))
    assert parse_ratfunc("-t^2 + 1") == -(t * t) + 1
    x = parse_ratfunc("(t^2 - 1)/(t - 1)")
    assert x == t + 1  # reduced



def test_ratfunc_powers_equal_their_products():
    t = RatFunc.t_power(1)
    one = RatFunc.const(1)
    assert parse_ratfunc("(t+1)^3") == (t + 1) * (t + 1) * (t + 1)
    assert parse_ratfunc("t^-2") == one / (t * t)
    assert parse_ratfunc("(2/t)^-3") == one / ((2 / t) * (2 / t) * (2 / t))
    assert parse_ratfunc("(t^2+1)^0") == one
    assert parse_ratfunc(f"t^{MAX_POWER_DEGREE}") == RatFunc.t_power(MAX_POWER_DEGREE)


@pytest.mark.parametrize("text", [
    "t^99999999", f"t^{MAX_POWER_DEGREE + 1}", f"t^-{MAX_POWER_DEGREE + 1}",
    f"(t^2+1)^{MAX_POWER_DEGREE // 2 + 1}", f"(1/(t^3+t))^{MAX_POWER_DEGREE // 3 + 1}",
    f"2^{MAX_POWER_DEGREE + 1}"])
def test_ratfunc_power_above_the_degree_bound_is_refused(text):
    """|k| times the degree of the base (a constant counting as 1) above
    MAX_POWER_DEGREE is refused before any multiplication."""
    with pytest.raises(DomainError, match="exceeds degree"):
        parse_ratfunc(text)

@pytest.mark.parametrize("parse, text", [
    (QQ.coerce, "abc"), (QQ.coerce, "1/0"), (QQ.coerce, ""),
    (GF(5).coerce, "1/5"), (GF(5).coerce, "x"), (GF(5).coerce, "2/0"),
    (parse_ratfunc, "1/0"), (parse_ratfunc, "t/0"), (parse_ratfunc, "(t-t)^-1"),
])
def test_malformed_scalar_text_is_domain_error(parse, text):
    """Malformed text and zero denominators raise DomainError, the one
    error every JSON reader raises, never ValueError or ZeroDivisionError."""
    with pytest.raises(DomainError):
        parse(text)


def test_ratfunc_limit():
    f = parse_ratfunc("(t^2+t)/t")
    assert not f.has_pole_at_zero()
    assert f.eval_at_zero() == 1
    g = parse_ratfunc("1/t")
    assert g.has_pole_at_zero()
    with pytest.raises(ZeroDivisionError):
        g.eval_at_zero()


def test_ratfunc_field_ops():
    a = parse_ratfunc("t^2/(t+1)")
    b = parse_ratfunc("1/(t+1)")
    assert a + b == parse_ratfunc("(t^2+1)/(t+1)")
    assert a / a == RatFunc.const(1)
    assert QT.is_zero(a - a)


def test_poly_ring():
    R = PolyRing(2)
    x, y = R.gens()
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.eval([Fraction(3), Fraction(2)]) == 5
    q = (x + y) * (x + y)
    assert q.divexact(x + y) == x + y
    with pytest.raises((DomainError, ZeroDivisionError)):
        (x * x + y).divexact(x + y)


def test_poly_degree_and_zero():
    R = PolyRing(3)
    x, y, z = R.gens()
    assert (x * y * z).degree() == 3
    assert R.zero().degree() == -1
    assert not (x - x)


def test_poly_int_and_fraction_coefficients_are_one_value():
    """The integer scan form of the identity scan builds int-coefficient
    polynomials: they equal, hash and print as their Fraction twins, their
    arithmetic stays int, and a product drops the terms that cancel."""
    as_int = Poly(2, {(1, 0): 3, (0, 2): -1, (0, 0): 1})
    as_frac = Poly(2, {e: Fraction(c) for e, c in as_int.terms.items()})
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    assert repr(as_int) == repr(as_frac) == "-1*x1^2 + 3*x0 + 1"
    for p in (as_int * as_int, as_int + as_int, as_int - as_int * as_int):
        assert all(type(c) is int for c in p.terms.values())
    assert as_int * as_int == as_frac * as_frac
    assert (as_int - as_int).terms == {}
    x, y = Poly(2, {(1, 0): 1}), Poly(2, {(0, 1): 1})
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    assert (as_int * (x - x)).terms == {}
    quotient = (as_int * 4).divexact(as_int)
    assert quotient == 4 and all(type(c) is Fraction for c in quotient.terms.values())
