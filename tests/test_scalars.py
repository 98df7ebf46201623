from fractions import Fraction
from operator import add
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import scalars
from nonassoc.scalars import (GF, MAX_POWER_DEGREE, QQ, QT, DomainError, Poly, PolyRing,
                              RatFunc, _is_prime, _pdivmod, _pgcd, _pmul, _pnorm, parse_ratfunc)


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


def _raw_euclid_pgcd(a, b):
    """Reference: ``_pgcd`` before its remainders were made monic."""
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = tuple(c / lead for c in a)
    return a


_SMALL_POLYS = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                        max_size=5).map(_pnorm)


@settings(max_examples=300, deadline=None)
@given(_SMALL_POLYS, _SMALL_POLYS, _SMALL_POLYS)
def test_monic_euclid_matches_raw_euclid(a, b, g):
    """The gcd and every reduced RatFunc are those of Euclid on raw
    remainders; the common factor g makes the gcd nontrivial often."""
    a, b = _pmul(a, g), _pmul(b, g)
    assert _pgcd(a, b) == _raw_euclid_pgcd(a, b)
    if b:
        got = RatFunc(a, b)
        with mock.patch.object(scalars, "_pgcd", _raw_euclid_pgcd):
            want = RatFunc(a, b)
        assert (got.num, got.den) == (want.num, want.den)


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
    R = PolyRing(2)
    as_int = Poly(2, {R.pack((1, 0)): 3, R.pack((0, 2)): -1, R.pack((0, 0)): 1})
    as_frac = Poly(2, {e: Fraction(c) for e, c in as_int.terms.items()})
    assert as_int == as_frac and hash(as_int) == hash(as_frac)
    assert repr(as_int) == repr(as_frac) == "-1*x1^2 + 3*x0 + 1"
    for p in (as_int * as_int, as_int + as_int, as_int - as_int * as_int):
        assert all(type(c) is int for c in p.terms.values())
    assert as_int * as_int == as_frac * as_frac
    assert (as_int - as_int).terms == {}
    x, y = Poly(2, {R.pack((1, 0)): 1}), Poly(2, {R.pack((0, 1)): 1})
    assert ((x + y) * (x - y)).terms == {R.pack((2, 0)): 1, R.pack((0, 2)): -1}
    assert (as_int * (x - x)).terms == {}
    quotient = (as_int * 4).divexact(as_int)
    assert quotient == 4 and all(type(c) is Fraction for c in quotient.terms.values())


def _tuple_keyed_poly():
    """The reference: ``scalars.Poly`` as it was before its monomials were
    packed into ints, verbatim, with exponent tuples as keys."""

    class Poly:
        """Multivariate polynomial over Q; terms maps exponent tuples to nonzero
        coefficients, ints or Fractions.  Sums and products of int-coefficient
        polynomials stay int (the integer scan form of ``identities``), and a
        Fraction and the int of equal value are one coefficient, so such
        polynomials compare, hash and print alike."""

        __slots__ = ("n", "terms")

        def __init__(self, n, terms=None):
            self.n = n
            self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

        @staticmethod
        def const(n, c):
            c = Fraction(c)
            return Poly(n, {(0,) * n: c} if c else {})

        @staticmethod
        def var(n, i):
            e = [0] * n
            e[i] = 1
            return Poly(n, {tuple(e): Fraction(1)})

        def _lift(self, other):
            if isinstance(other, Poly):
                return other
            if isinstance(other, (int, Fraction)):
                return Poly.const(self.n, other)
            return NotImplemented

        def __add__(self, other):
            o = self._lift(other)
            if o is NotImplemented:
                return o
            out = dict(self.terms)
            for e, c in o.terms.items():
                s = out.get(e, 0) + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
            return Poly(self.n, out)

        __radd__ = __add__

        def __sub__(self, other):
            o = self._lift(other)
            return self + (-o) if o is not NotImplemented else o

        def __rsub__(self, other):
            o = self._lift(other)
            return o + (-self) if o is not NotImplemented else o

        def __mul__(self, other):
            o = self._lift(other)
            if o is NotImplemented:
                return o
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in o.terms.items():
                    e = tuple(map(add, e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
            return Poly(self.n, out)

        __rmul__ = __mul__

        def __neg__(self):
            return Poly(self.n, {e: -c for e, c in self.terms.items()})

        def __eq__(self, other):
            o = self._lift(other)
            if o is NotImplemented:
                return o
            return self.terms == o.terms

        def __hash__(self):
            return hash(frozenset(self.terms.items()))

        def __bool__(self):
            return bool(self.terms)

        def degree(self):
            return max((sum(e) for e in self.terms), default=-1)

        def leading(self):
            # deglex order, ties by exponent tuple
            e = max(self.terms, key=lambda e: (sum(e), e))
            return e, self.terms[e]

        def divexact(self, other):
            """Exact division; raises if the division leaves a remainder."""
            o = self._lift(other)
            if not o.terms:
                raise ZeroDivisionError("polynomial division by zero")
            rem = Poly(self.n, dict(self.terms))
            out = {}
            le, lc = o.leading()
            while rem.terms:
                re_, rc = rem.leading()
                qe = tuple(a - b for a, b in zip(re_, le))
                if any(q < 0 for q in qe):
                    raise DomainError("inexact polynomial division")
                qc = Fraction(rc) / lc
                out[qe] = out.get(qe, Fraction(0)) + qc
                rem = rem - Poly(self.n, {qe: qc}) * o
            return Poly(self.n, out)

        def eval(self, point):
            total = Fraction(0)
            for e, c in self.terms.items():
                v = c
                for x, k in zip(point, e):
                    for _ in range(k):
                        v *= x
                total += v
            return total

        def __repr__(self):
            if not self.terms:
                return "0"
            bits = []
            for e in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
                c = self.terms[e]
                mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}"
                                for i, k in enumerate(e) if k)
                if mono:
                    bits.append(f"{c}*{mono}" if c != 1 else mono)
                else:
                    bits.append(str(c))
            return " + ".join(bits).replace("+ -", "- ")

    return Poly


_RefPoly = _tuple_keyed_poly()


def _pair(n, terms):
    """(packed Poly, reference Poly) of terms {exponent tuple: coefficient}."""
    R = PolyRing(n)
    return Poly(n, {R.pack(e): c for e, c in terms.items()}), _RefPoly(n, terms)


def _assert_same(got, want):
    """The packed Poly has the reference's terms, coefficient types and repr."""
    R = PolyRing(got.n)
    assert got.n == want.n
    assert {R.unpack(e): (c, type(c)) for e, c in got.terms.items()} == \
        {e: (c, type(c)) for e, c in want.terms.items()}
    assert repr(got) == repr(want)


_COEFFS = st.one_of(st.integers(-4, 4), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def _draw_terms(data, n):
    """Up to 5 terms in n variables, each with up to 3 variables of
    exponent at most 3 (int or Fraction coefficients, some of them 0)."""
    terms = {}
    for _ in range(data.draw(st.integers(0, 5))):
        e = [0] * n
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3)):
            e[i] = data.draw(st.integers(0, 3))
        terms[tuple(e)] = data.draw(_COEFFS)
    return terms


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_poly_matches_the_tuple_keyed_reference(data):
    """Random polynomials in 1-40 variables: sums, differences, products,
    negation, equality, hashing, repr, degree, leading term, exact division
    and evaluation agree with the tuple-keyed reference."""
    n = data.draw(st.integers(1, 40))
    (a, ra), (b, rb) = _pair(n, _draw_terms(data, n)), _pair(n, _draw_terms(data, n))
    k = data.draw(_COEFFS)
    for got, want in [(a, ra), (a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (-a, -ra), (a + k, ra + k), (k * a, k * ra), (k - a, k - ra),
                      (a * b - b * a, ra * rb - rb * ra)]:
        _assert_same(got, want)
    assert (a == b) == (ra == rb) and (a == a + 0) and (a == k) == (ra == k)
    as_frac = Poly(n, {e: Fraction(c) for e, c in a.terms.items()})
    assert as_frac == a and hash(as_frac) == hash(a)
    assert (hash(a) == hash(b)) or a != b
    assert a.degree() == ra.degree() and (a * b).degree() == (ra * rb).degree()
    if a:
        assert a.leading() == ra.leading()
    if b:
        _assert_same((a * b).divexact(b), (ra * rb).divexact(rb))
        try:
            want = ra.divexact(rb)
        except DomainError:
            with pytest.raises(DomainError):
                a.divexact(b)
        else:
            _assert_same(a.divexact(b), want)
    point = [Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 2)))
             for _ in range(n)]
    assert a.eval(point) == ra.eval(point) and (a * b).eval(point) == (ra * rb).eval(point)


def test_poly_exponent_fields_stop_at_their_guard_bit():
    """Every field holds exponents and total degrees up to 2**15 - 1; one
    more raises DomainError, in the highest variable's field and in the
    lowest one, before any key wraps into its neighbour."""
    top = 2 ** 15 - 1
    R = PolyRing(2)
    x0, x1 = R.gens()
    assert R.unpack(R.pack((top, 0))) == (top, 0) and R.unpack(R.pack((0, top))) == (0, top)
    for e in [(top + 1, 0), (0, top + 1), (top, 1), (-1, 1), (1,)]:
        with pytest.raises(DomainError):
            R.pack(e)
    high = Poly(2, {R.pack((top - 1, 0)): 1}) * x0
    low = Poly(2, {R.pack((0, top - 1)): 3}) * x1
    assert repr(high) == f"x0^{top}" and repr(low) == f"3*x1^{top}"
    assert high.degree() == low.degree() == top and low.leading() == ((0, top), 3)
    assert high.eval([Fraction(1), Fraction(5)]) == 1
    assert Poly(2, {R.pack((top - 1, 0)): 1}) * x1 == Poly(2, {R.pack((top - 1, 1)): 1})
    for p, q in [(high, x0), (low, x1), (high, x1), (low, x0), (high, high), (x1 + high, x1)]:
        with pytest.raises(DomainError):
            p * q
    assert high.divexact(x0) == Poly(2, {R.pack((top - 1, 0)): 1})
    with pytest.raises(DomainError):
        low.divexact(x0)


def test_poly_refuses_another_variable_count():
    x = PolyRing(2).gens()[0]
    with pytest.raises(DomainError):
        x + PolyRing(3).gens()[0]
    with pytest.raises(DomainError):
        PolyRing(3).coerce(x)
