"""Exact scalar domains.

Every computation in the workbench runs over one of these domains:

* ``QQ``        -- arbitrary-precision rationals (``fractions.Fraction``)
* ``GF(p)``     -- prime fields
* ``QT``        -- rational functions in one parameter t over the rationals
* ``PolyRing``  -- multivariate polynomials over the rationals (generic points)

No floating point is used anywhere; division by zero raises.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add


class DomainError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

class RationalDomain:
    name = "Q"
    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError):
                raise DomainError(f"{x!r} is not a rational number") from None
        raise DomainError(f"cannot coerce {x!r} into Q")

    def is_zero(self, x):
        return x == 0

    def to_str(self, x):
        return str(x)

    parse = coerce

    def __repr__(self):
        return "QQ"


QQ = RationalDomain()


# ---------------------------------------------------------------------------
# prime fields
# ---------------------------------------------------------------------------

# Miller-Rabin with the prime bases up to 41 is a proof of primality below
# this bound, the least strong pseudoprime to all of them (Sorenson & Webster,
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p):
    """Whether p is prime, decided by deterministic Miller-Rabin; raises
    ``DomainError`` for p at or above ``_MR_LIMIT``, where the bases prove
    nothing."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    if p >= _MR_LIMIT:
        raise DomainError(f"cannot decide whether {p} is prime: primality is "
                          f"proven only below {_MR_LIMIT}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of GF(p).  Arithmetic stays reduced mod p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise DomainError("mixed prime fields")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return Fp(self.v + o.v, self.p) if o is not NotImplemented else o

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Fp(self.v - o.v, self.p) if o is not NotImplemented else o

    def __rsub__(self, other):
        o = self._lift(other)
        return Fp(o.v - self.v, self.p) if o is not NotImplemented else o

    def __mul__(self, other):
        o = self._lift(other)
        return Fp(self.v * o.v, self.p) if o is not NotImplemented else o

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return Fp(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}"


class PrimeField:
    char = None

    def __init__(self, p):
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.name = f"GF({p})"

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def from_int(self, k):
        return Fp(k, self.p)

    def coerce(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise DomainError("mixed prime fields")
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DomainError(f"{x} has a denominator divisible by {self.p}")
            return Fp(x.numerator, self.p) / Fp(x.denominator, self.p)
        if isinstance(x, str):
            return self.coerce(QQ.coerce(x))
        raise DomainError(f"cannot coerce {x!r} into {self.name}")

    def is_zero(self, x):
        return x.v == 0

    def to_str(self, x):
        return str(x.v)

    parse = coerce

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


def GF(p):
    return PrimeField(p)


# ---------------------------------------------------------------------------
# univariate polynomials over Q (coefficient tuples, index = degree)
# ---------------------------------------------------------------------------

def _pnorm(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _padd(a, b):
    n = max(len(a), len(b))
    return _pnorm([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _pnorm(out)


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = c
        for i in range(len(b)):
            r[k + i] -= c * b[i]
        while r and r[-1] == 0:
            r.pop()
    return _pnorm(q), _pnorm(r)


def _monic(a):
    lead = a[-1]
    return a if lead == 1 else tuple(c / lead for c in a)


def _pgcd(a, b):
    """The monic gcd of a and b (() when both are zero).  Each remainder is
    made monic before the next division: on raw remainders the
    coefficients of Euclid's sequence over Q grow exponentially."""
    while b:
        b = _monic(b)
        a, b = b, _pdivmod(a, b)[1]
    return _monic(a) if a else a


class RatFunc:
    """Rational function in t with rational coefficients, always reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        num = _pnorm(Fraction(c) for c in num)
        den = _pnorm(Fraction(c) for c in den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(t)")
        if num:
            g = _pgcd(num, den)
            if len(g) > 1:
                num = _pdivmod(num, g)[0]
                den = _pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                num = tuple(c / lead for c in num)
                den = tuple(c / lead for c in den)
        else:
            den = (Fraction(1),)
        self.num = num
        self.den = den

    @staticmethod
    def const(c):
        return RatFunc((Fraction(c),))

    @staticmethod
    def t_power(k):
        if k >= 0:
            return RatFunc((0,) * k + (1,))
        return RatFunc((1,), (0,) * (-k) + (1,))

    def _lift(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return RatFunc(_padd(_pmul(self.num, o.den), _pmul(o.num, self.den)),
                       _pmul(self.den, o.den))

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
        return RatFunc(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if not o.num:
            raise ZeroDivisionError("division by zero in Q(t)")
        return RatFunc(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._lift(other)
        return o / self if o is not NotImplemented else o

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den)

    def __eq__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def has_pole_at_zero(self):
        return self.den[0] == 0 if self.den else False

    def eval_at_zero(self):
        if self.has_pole_at_zero():
            raise ZeroDivisionError("pole at t=0")
        n = self.num[0] if self.num else Fraction(0)
        return n / self.den[0]

    def eval(self, t):
        n = sum(c * t ** i for i, c in enumerate(self.num)) if self.num else Fraction(0)
        d = sum(c * t ** i for i, c in enumerate(self.den))
        return Fraction(n) / d

    def __repr__(self):
        def side(cs):
            if not cs:
                return "0"
            bits = []
            for i, c in enumerate(cs):
                if c == 0:
                    continue
                if i == 0:
                    bits.append(str(c))
                elif i == 1:
                    bits.append("t" if c == 1 else f"{c}*t")
                else:
                    bits.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
            return " + ".join(bits).replace("+ -", "- ")
        if self.den == (Fraction(1),):
            return side(self.num)
        return f"({side(self.num)})/({side(self.den)})"


# the largest degree of a power b^k in a Q(t) expression, |k| times the
# degree of b (a constant counting as degree 1, as its size grows with k too)
MAX_POWER_DEGREE = 1000


def _power(base, k, text):
    """base^k by repeated squaring; DomainError when |k| times the degree of
    base exceeds MAX_POWER_DEGREE."""
    degree = max(len(base.num), len(base.den), 2) - 1
    if abs(k) * degree > MAX_POWER_DEGREE:
        raise DomainError(f"a power in {text!r} exceeds degree {MAX_POWER_DEGREE}")
    out, e = RatFunc.const(1), abs(k)
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out if k >= 0 else RatFunc.const(1) / out


_RF_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|t|\^|\*|/|\+|-|\(|\))")


def parse_ratfunc(text):
    """Parse expressions like ``t^-1``, ``(t^2+1)/t``, ``3/2``, ``-t``."""
    pos = 0
    toks = []
    while pos < len(text):
        m = _RF_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise DomainError(f"bad Q(t) expression at column {pos}: {text!r}")
        toks.append(m.group(1))
        pos = m.end()
    i = 0

    def peek():
        return toks[i] if i < len(toks) else None

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def atom():
        nonlocal i
        tok = peek()
        if tok == "(":
            take()
            v = expr()
            if peek() != ")":
                raise DomainError(f"missing ')' in {text!r}")
            take()
        elif tok == "t":
            take()
            v = RatFunc.t_power(1)
        elif tok is not None and (tok[0].isdigit()):
            take()
            v = RatFunc.const(QQ.coerce(tok))
        else:
            raise DomainError(f"bad Q(t) expression: {text!r}")
        if peek() == "^":
            take()
            sign = 1
            if peek() == "-":
                take()
                sign = -1
            etok = peek()
            if etok is None or not etok.isdigit():
                raise DomainError(f"bad exponent in {text!r}")
            take()
            v = _power(v, sign * int(etok), text)
        return v

    def factor():
        v = atom()
        while peek() in ("*", "/"):
            op = take()
            w = atom()
            v = v * w if op == "*" else v / w
        return v

    def expr():
        neg = False
        if peek() in ("+", "-"):
            neg = take() == "-"
        v = factor()
        if neg:
            v = -v
        while peek() in ("+", "-"):
            op = take()
            w = factor()
            v = v + w if op == "+" else v - w
        return v

    try:
        out = expr()
    except ZeroDivisionError:
        raise DomainError(f"division by zero in {text!r}") from None
    if i != len(toks):
        raise DomainError(f"trailing tokens in {text!r}")
    return out


class RatFuncField:
    name = "Q(t)"
    char = 0

    def zero(self):
        return RatFunc(())

    def one(self):
        return RatFunc.const(1)

    def from_int(self, k):
        return RatFunc.const(k)

    def coerce(self, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc.const(x)
        if isinstance(x, str):
            return parse_ratfunc(x)
        raise DomainError(f"cannot coerce {x!r} into Q(t)")

    def is_zero(self, x):
        return not x.num

    def to_str(self, x):
        return repr(x)

    parse = coerce

    def __repr__(self):
        return "QT"


QT = RatFuncField()


# ---------------------------------------------------------------------------
# multivariate polynomials over Q
# ---------------------------------------------------------------------------

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


class PolyRing:
    """Domain wrapper for Poly values in a fixed number of variables.

    Not a field, and no row reduction runs over it: it carries evaluation
    (``identities.symbolic_check``, the ``law_table`` of a generic product)
    and matrix products.  ``linalg.generic_rank`` takes a matrix of Polys
    and reduces only at rational points and on coefficient systems over Q.
    """

    char = 0

    def __init__(self, nvars):
        self.n = nvars
        self.name = f"Q[x0..x{nvars - 1}]"

    def zero(self):
        return Poly(self.n, {})

    def one(self):
        return Poly.const(self.n, 1)

    def from_int(self, k):
        return Poly.const(self.n, k)

    def coerce(self, x):
        if isinstance(x, Poly):
            if x.n != self.n:
                raise DomainError("variable count mismatch")
            return x
        if isinstance(x, (int, Fraction)):
            return Poly.const(self.n, x)
        raise DomainError(f"cannot coerce {x!r} into {self.name}")

    def is_zero(self, x):
        return not x.terms

    def to_str(self, x):
        return repr(x)

    def gens(self):
        return [Poly.var(self.n, i) for i in range(self.n)]

    def __repr__(self):
        return self.name


def domain_from_name(name):
    """JSON field tag -> domain.  Accepts "Q" and "GF(p)"."""
    if name == "Q":
        return QQ
    m = re.fullmatch(r"GF\((\d+)\)", name)
    if m:
        return GF(int(m.group(1)))
    raise DomainError(f"unknown field {name!r}")
