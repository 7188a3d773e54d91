"""Exact arithmetic for quadratic surds, i.e. numbers a + b*sqrt(r).

The closed-form spectra only ever need rationals plus a single square root of
an integer, so a tiny purpose-built type beats a full CAS: sums, products,
absolute values, signs and comparisons all stay exact, and rounding happens
at the final float conversion.  Every sign and order comes from one
identity: t -> t|t| is odd and increasing, so sign(a + b*sqrt(r)) is the
sign of the rational a|a| + b|b|r.
"""

import math
import operator
from fractions import Fraction


def _split_square(r: int) -> tuple[int, int]:
    # r = k*k * s, s squarefree: once every d with d**3 <= r is divided out,
    # the cofactor has at most two prime factors, so isqrt settles it
    k, s, d = 1, 1, 2
    while d * d * d <= r:
        while r % (d * d) == 0:
            r //= d * d
            k *= d
        if r % d == 0:
            r //= d
            s *= d
        d += 1
    root = math.isqrt(r)
    if r > 1 and root * root == r:
        return k * root, s
    return k, s * r


class Surd:
    """Exact value a + b*sqrt(r) with rational a, b and integer r >= 0.

    Construction normalises: square factors of r move into b, and a perfect
    square (or zero coefficient) collapses to the purely rational form with
    b == 0, r == 0.  Addition and multiplication are closed as long as both
    operands share the same radicand; mixing radicands raises, since the
    result would leave the representable field.  Comparisons with an int, a
    Fraction, a finite float (as the Fraction it holds) or a Surd of any
    radicand are exact; +-inf and nan order as floats.
    """

    __slots__ = ("a", "b", "r")

    def __init__(self, a=0, b=0, r=0):
        a = Fraction(a)
        b = Fraction(b)
        r = int(r)
        if r < 0:
            raise ValueError("radicand must be non-negative")
        if b == 0 or r == 0:
            b, r = Fraction(0), 0
        else:
            k, reduced = _split_square(r)
            if reduced == 1:
                a, b, r = a + b * k, Fraction(0), 0
            else:
                b, r = b * k, reduced
        self.a = a
        self.b = b
        self.r = r

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @staticmethod
    def _coerce(value):
        if isinstance(value, Surd):
            return value
        if isinstance(value, (int, Fraction)):
            return Surd(value)
        return None

    def _common_radicand(self, other: "Surd") -> int:
        if self.b == 0:
            return other.r
        if other.b == 0:
            return self.r
        if self.r != other.r:
            raise ArithmeticError(
                f"cannot combine sqrt({self.r}) with sqrt({other.r}) exactly"
            )
        return self.r

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self._common_radicand(o)
        return Surd(self.a + o.a, self.b + o.b, r)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.r)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = self._common_radicand(o)
        return Surd(self.a * o.a + self.b * o.b * r, self.a * o.b + self.b * o.a, r)

    __rmul__ = __mul__

    def sign(self) -> int:
        return _sign(self.a, self.b, self.r)

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self) -> float:
        a, b = self.a, self.b
        if not (a < 0 < b or b < 0 < a):
            return float(a) + float(b) * math.sqrt(self.r)
        # opposite signs cancel: a + b*sqrt(r) = (a^2 - b^2 r) / (a - b*sqrt(r)),
        # whose numerator is one exact int / int division and whose
        # denominator adds two terms of one sign
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        num = (an * an * bd * bd - bn * bn * self.r * ad * ad) / (ad * ad * bd * bd)
        return num / (float(a) - float(b) * math.sqrt(self.r))

    def _cmp(self, other, op):
        if isinstance(other, float):
            if not math.isfinite(other):  # any finite stand-in orders alike
                return op(0.0, other)
            other = Fraction(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # self - other = u + p*sqrt(r) + q*sqrt(s), in one field when r == s
        # or one side is rational
        u, p, r, q, s = self.a - o.a, self.b, self.r, -o.b, o.r
        if r == s or not p or not q:
            return op(_sign(u, p + q, r or s), 0)
        # v = p*sqrt(r) + q*sqrt(s) has the sign of sqrt(r)*v = p*r + q*sqrt(rs),
        # and v|v| = sign(v) * (p^2 r + q^2 s + 2pq*sqrt(rs))
        sv = _sign(p * r, q, r * s)
        return op(_sign(u * abs(u) + sv * (p * p * r + q * q * s), 2 * sv * p * q, r * s), 0)

    def __eq__(self, other):
        return self._cmp(other, operator.eq)

    def __lt__(self, other):
        return self._cmp(other, operator.lt)

    def __le__(self, other):
        return self._cmp(other, operator.le)

    def __gt__(self, other):
        return self._cmp(other, operator.gt)

    def __ge__(self, other):
        return self._cmp(other, operator.ge)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.r))

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.r})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.r})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.r})"
        if self.a == 0:
            return root if self.b > 0 else f"-{root}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {root}"


def _sign(a, b, r: int) -> int:
    # sign(a + b*sqrt(r)) for rational a, b and integer r >= 0, as the sign
    # of a|a| + b|b|r over the common denominator (a.d * b.d)^2
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    x = an * abs(an) * bd * bd + bn * abs(bn) * r * ad * ad
    return (x > 0) - (x < 0)


def _normal_surd(a: Fraction, b: Fraction, r: int) -> Surd:
    # a Surd already in normal form (b == r == 0, or b != 0 and r > 1
    # squarefree), built without normalising it again
    surd = Surd.__new__(Surd)
    surd.a, surd.b, surd.r = a, b, r
    return surd


def quadratic_roots(b, c) -> tuple[Surd, Surd]:
    """Exact roots of x**2 - b*x + c, larger root first.

    Raises ValueError when the discriminant is negative.  Perfect-square
    discriminants give rational Surds.  b and c are ints or Fractions,
    taken through one path: sqrt(num/den) = k*sqrt(s)/den, with num*den
    split once into k*k*s.
    """
    b = Fraction(b)
    c = Fraction(c)
    disc = b * b - 4 * c
    if disc < 0:
        raise ValueError("quadratic has no real roots")
    k, s = _split_square(disc.numerator * disc.denominator)
    half_b = b / 2
    if s <= 1:  # a perfect square, zero included
        half_root = Fraction(k * s, 2 * disc.denominator)
        return (_normal_surd(half_b + half_root, Fraction(0), 0),
                _normal_surd(half_b - half_root, Fraction(0), 0))
    half_root = Fraction(k, 2 * disc.denominator)
    return _normal_surd(half_b, half_root, s), _normal_surd(half_b, -half_root, s)


def simplify_value(value):
    """Collapse a rational Surd to an int or Fraction; pass others through."""
    if isinstance(value, Surd) and value.is_rational:
        frac = value.a
        return int(frac) if frac.denominator == 1 else frac
    return value
