"""Exact arithmetic for quadratic surds, i.e. numbers a + b*sqrt(r).

The closed-form spectra only ever need rationals plus a single square root of
an integer, so a tiny purpose-built type beats a full CAS: sums, products,
absolute values and sign tests all stay exact, and rounding happens once, at
the final float conversion.
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
    result would leave the representable field.
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
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        rational_sq = self.a * self.a
        surd_sq = self.b * self.b * self.r
        if self.a > 0:  # b < 0
            return (rational_sq > surd_sq) - (rational_sq < surd_sq)
        return (surd_sq > rational_sq) - (surd_sq < rational_sq)

    def __abs__(self):
        return -self if self.sign() < 0 else Surd(self.a, self.b, self.r)

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.r)

    def _cmp(self, other, op):
        if isinstance(other, float):
            return op(float(self), other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        try:
            sign = (self - o).sign()
        except ArithmeticError:
            # distinct radicands: order by value; normalised surds over
            # different radicands can never be exactly equal, so the float
            # comparison is decisive
            a, b = float(self), float(o)
            sign = (a > b) - (a < b)
        return op(sign, 0)

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
