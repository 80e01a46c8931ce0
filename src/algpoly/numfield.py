"""Exact arithmetic and ordering in a real embedded algebraic number field.

A field Q[a] is described by a defining polynomial and an interval
isolating one real root, the generator a.  Internally the polynomial is
one primitive integer polynomial, and the generator enclosure is a pair of
integers over one common denominator, refined on demand; the field is
checked (square-free, exactly one root in the interval, no root at its
ends) by integer pseudo-remainders and a Sturm count.  Elements are
stored as integer coefficient vectors of length deg over a single
positive integer denominator, kept in canonical reduced form, so equality
and hashing are structural and the zero test is symbolic.

Sign decisions for nonzero elements are numeric: the element polynomial is
evaluated on an enclosing interval of the generator with outward-rounded
dyadic interval arithmetic.  While the value interval straddles zero, the
working precision of the evaluation is doubled first, then the generator
enclosure, if it is wider than the evaluation grid, is replaced by one with
twice the number of correct digits.
Once that refinement passes `_ZERO_TEST_DIGITS`, the element polynomial is
tested for a common root with a reducible defining polynomial inside the
enclosure: such an element is nonzero in Q[a] but zero at the embedding, so
its sign cannot be decided and `VanishingElement` is raised instead.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DivisionByZero,
    ElementSyntaxError,
    FieldMismatch,
    NoRootInInterval,
    NotSquareFree,
    VanishingElement,
    ZeroPolynomial,
)
from .linalg import _back_substitute, _reduce

_INITIAL_BITS = 64
_INITIAL_DIGITS = 20  # decimal digits carried by the initial generator enclosure
_ZERO_TEST_DIGITS = 300  # generator digits past which sign() tests for a zero


# ----------------------------------------------------------------------------
# dense univariate polynomials over Z, lowest degree first: the defining
# polynomial, element polynomials and their gcds.  Remainders are primitive
# pseudo-remainders, positive multiples of the true ones, so that Sturm
# signs stay right (Cohen, GTM 138, section 3.3).

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    g = gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(p, q):
    """|lc(q)|**m times the remainder of p by q, for some m >= 0."""
    p = list(p)
    dq, lc = len(q) - 1, q[-1]
    while len(p) > dq:
        k = len(p) - 1 - dq
        c = p[-1] if lc > 0 else -p[-1]
        p = [abs(lc) * x for x in p]
        for i, y in enumerate(q):
            p[k + i] -= c * y
        _trim(p)
    return p


def _pgcd(p, q):
    """A gcd of p and q up to a nonzero factor ([] if both are 0)."""
    p, q = _trim(list(p)), _trim(list(q))
    while q:
        p, q = q, _primitive(_prem(p, q))
    return p


def _pderiv(p):
    return [i * c for i, c in enumerate(p)][1:]


def _heval(coeffs, num, den):
    """den**deg * p(num/den) for an integer polynomial p, by homogeneous Horner."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * power
        power *= den
    return acc


def _sturm_chain(p):
    """Sturm sequence of p up to positive factors; it ends in gcd(p, p')."""
    chain = [list(p), _pderiv(p)]
    while True:
        rem = _prem(chain[-2], chain[-1])
        if not rem:
            return chain
        chain.append([-c for c in _primitive(rem)])


def _variations(values):
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _count_roots(chain, a, b, den):
    """Number of distinct real roots in (a/den, b/den] by Sturm's theorem."""
    at_a = _variations([_heval(c, a, den) for c in chain])
    at_b = _variations([_heval(c, b, den) for c in chain])
    return at_a - at_b


# ----------------------------------------------------------------------------
# dyadic interval evaluation: endpoints are integers at scale 2**-bits

def _scale_down(lo, hi, bits):
    return lo >> bits, -((-hi) >> bits)


def _eval_interval(coeffs, glo, ghi, bits):
    """Interval Horner of the integer polynomial at [glo, ghi]*2**-bits."""
    k = len(coeffs) - 1
    rlo = rhi = coeffs[k] << bits
    for i in range(k - 1, -1, -1):
        p1, p2, p3, p4 = rlo * glo, rlo * ghi, rhi * glo, rhi * ghi
        lo, hi = _scale_down(min(p1, p2, p3, p4), max(p1, p2, p3, p4), bits)
        c = coeffs[i] << bits
        rlo, rhi = lo + c, hi + c
    return rlo, rhi


# ----------------------------------------------------------------------------
# decimal rendering helpers (shared with the io module)

def fixed_decimal_str(fr, digits):
    """Fraction -> fixed point decimal string with `digits` fractional digits."""
    scale = 10 ** digits
    n = (fr.numerator * scale * 2 + fr.denominator) // (fr.denominator * 2)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, scale)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


def sig_decimal_str(fr, sig):
    """Fraction -> decimal string with `sig` significant digits (plain notation)."""
    if fr == 0:
        return "0." + "0" * (sig - 1) if sig > 1 else "0"
    sign = "-" if fr < 0 else ""
    a = abs(fr)
    exp = 0
    while a >= 10:
        a /= 10
        exp += 1
    while a < 1:
        a *= 10
        exp -= 1
    # a in [1, 10); round to sig digits
    scaled = a * 10 ** (sig - 1)
    n = (scaled.numerator * 2 + scaled.denominator) // (scaled.denominator * 2)
    digits = str(n)
    if len(digits) > sig:  # rounded up to the next power of ten
        exp += 1
        digits = digits[:sig]
    if exp >= sig - 1:
        return sign + digits + "0" * (exp - sig + 1)
    if exp >= 0:
        head, tail = digits[: exp + 1], digits[exp + 1 :]
        return sign + head + ("." + tail if tail else "")
    return sign + "0." + "0" * (-exp - 1) + digits


def sci_str(fr, sig=3):
    """Fraction -> scientific notation string with `sig` significant digits,
    rounded up in absolute value."""
    if fr == 0:
        return "0"
    sign = "-" if fr < 0 else ""
    a = abs(fr)
    exp = 0
    while a >= 10:
        a /= 10
        exp += 1
    while a < 1:
        a *= 10
        exp -= 1
    scaled = a * 10 ** (sig - 1)
    n = -(-scaled.numerator // scaled.denominator)
    digits = str(n)
    if len(digits) > sig:  # rounded up to the next power of ten
        exp += 1
        digits = digits[:sig]
    mant = digits[0] + ("." + digits[1:] if sig > 1 else "")
    return f"{sign}{mant}e{exp:+03d}" if exp < 0 else f"{sign}{mant}e{exp}"


# ----------------------------------------------------------------------------

class EmbeddingInterval:
    """Closed rational interval meant to isolate the generator."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if not self.lo < self.hi:
            raise NoRootInInterval(f"empty embedding interval [{lo}, {hi}]")

    @classmethod
    def from_center(cls, center, radius):
        center, radius = Fraction(center), Fraction(radius)
        return cls(center - radius, center + radius)

    def __repr__(self):
        return f"EmbeddingInterval({self.lo}, {self.hi})"


class NumberField:
    """A real embedded algebraic number field Q[a].

    The generator enclosure is one tuple (lo, hi, den) of integers over a
    common denominator.  It only ever shrinks, and it is replaced whole, so
    concurrent readers may use a stale (wider) enclosure safely.
    """

    def __init__(self, min_poly, interval, gen_name="a"):
        coeffs = [Fraction(c) for c in min_poly]
        scale = lcm(*(c.denominator for c in coeffs))
        poly = _trim([int(c * scale) for c in coeffs])
        if len(poly) < 2:
            raise ZeroPolynomial("defining polynomial must have degree >= 1")
        poly = _primitive(poly if poly[-1] > 0 else [-c for c in poly])
        if isinstance(interval, (tuple, list)):
            interval = EmbeddingInterval(*interval)
        self.min_poly = tuple(Fraction(c, poly[-1]) for c in poly)
        self._int_poly = poly
        self.degree = len(poly) - 1
        self.gen_name = gen_name
        self.embedding = interval

        lo, hi = interval.lo, interval.hi
        if self.degree == 1:
            root = Fraction(-poly[0], poly[1])
            if not (lo <= root <= hi):
                raise NoRootInInterval(f"rational root {root} outside [{lo}, {hi}]")
            self._enc = (root.numerator, root.numerator, root.denominator)
        else:
            chain = _sturm_chain(poly)
            if len(chain[-1]) > 1:
                raise NotSquareFree("defining polynomial has a repeated root")
            den = lcm(lo.denominator, hi.denominator)
            a = lo.numerator * (den // lo.denominator)
            b = hi.numerator * (den // hi.denominator)
            if _heval(poly, a, den) == 0 or _heval(poly, b, den) == 0:
                raise NoRootInInterval("interval endpoint is a rational root")
            n_roots = _count_roots(chain, a, b, den)
            if n_roots != 1:
                raise NoRootInInterval(
                    f"interval [{lo}, {hi}] contains {n_roots} roots, need exactly 1"
                )
            self._enc = (a, b, den)
        self._digits = 0
        # a**deg .. a**(2*deg-2), columns 1.. of a**(deg-1), over their least
        # common denominator
        rows, big = self._mul_matrix((0,) * (self.degree - 1) + (1,))
        powers = [list(col) for col in zip(*rows)][1:]
        g = gcd(big, *(c for col in powers for c in col))
        self._pow_rows = [[c // g for c in col] for col in powers], big // g
        self.zero = self._make((0,) * self.degree, 1)
        self.one = self._make((1,) + (0,) * (self.degree - 1), 1)
        if self.degree > 1:
            self.refine_generator(_INITIAL_DIGITS)

    # -- construction helpers

    def _make(self, coeffs, den):
        if den < 0:
            coeffs = tuple(-c for c in coeffs)
            den = -den
        g = den
        for c in coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            coeffs = tuple(c // g for c in coeffs)
            den //= g
        return NFElem(self, coeffs, den)

    def _mul_matrix(self, coeffs):
        """Multiplication matrix of an integer coefficient vector x.

        Returns its rows and their denominator; column j is x*a**j.
        """
        poly = self._int_poly
        cols = [(list(coeffs), 1)]
        for _ in range(self.degree - 1):
            c, d = cols[-1]
            top, c = c[-1], [0] + c[:-1]
            if top:  # a**deg = -(poly[0] + ... + poly[deg-1]*a**(deg-1)) / poly[deg]
                c, d = [poly[-1] * x - top * q for x, q in zip(c, poly)], d * poly[-1]
            cols.append((c, d))
        big = lcm(*(d for _, d in cols))
        return [[c[i] * (big // d) for c, d in cols] for i in range(self.degree)], big

    def _reduce_powers(self, conv):
        """The product of two integer coefficient vectors, given as their
        convolution of length 2*deg-1, as deg integer coefficients over the
        positive denominator `_pow_rows[1]`."""
        powers, big = self._pow_rows
        n = self.degree
        low = conv[:n] if big == 1 else [x * big for x in conv[:n]]
        for k in range(n, 2 * n - 1):
            if conv[k]:
                t = conv[k]
                low = [x + t * r for x, r in zip(low, powers[k - n])]
        return low

    # -- element factories

    def element(self, coeffs, den=1):
        """Element from rational coefficients c0 + c1*a + ... (low to high)."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise ValueError("coefficient vector longer than the field degree")
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        d = Fraction(den)
        big = 1
        for c in coeffs:
            big = lcm(big, (c / d).denominator)
        return self._make(tuple(int(c / d * big) for c in coeffs), big)

    def from_rational(self, value):
        value = Fraction(value)
        return self._make(
            (value.numerator,) + (0,) * (self.degree - 1), value.denominator
        )

    def gen(self):
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return self._make((0, 1) + (0,) * (self.degree - 2), 1)

    def parse(self, text):
        return parse_elem(text, self)

    # -- generator enclosure

    def generator_enclosure(self):
        a, b, den = self._enc
        return Fraction(a, den), Fraction(b, den)

    @property
    def generator_digits(self):
        return self._digits

    def refine_generator(self, digits):
        """Shrink the enclosure until its width is at most 10**-digits.

        The result is the cell that bisection would reach: with the width w
        over den, that is the cell of the grid lo + j*w/(den*2**k) that holds
        the generator, for the least k with w*10**digits <= den*2**k, or the
        grid point itself if the defining polynomial vanishes there.  A few
        integer Newton steps from the midpoint guess j; a binary search over
        the grid points, which probes the guess and its neighbours first,
        finds j exactly, so a bad guess costs at most k more evaluations.
        """
        a, b, den = self._enc
        w = b - a
        excess = -(-w * 10 ** digits // den)  # 2**k must reach it
        if excess > 1:
            k = (excess - 1).bit_length()
            poly, dpoly = self._int_poly, _pderiv(self._int_poly)
            base, top, den = a << k, b << k, den << k
            positive_lo = _heval(poly, base, den) > 0
            x = (base + top) >> 1
            for _ in range(2 * k.bit_length()):  # Newton, clamped to the enclosure
                d = _heval(dpoly, x, den)
                if not d:
                    break
                step = _heval(poly, x, den) // d
                x = min(max(x - step, base), top)
                if abs(step) <= w:
                    break
            lo, hi = 0, 1 << k  # grid indices with known signs at both ends
            guess = (x - base) // w
            tries = [guess - 1, guess + 1, guess]
            while hi - lo > 1:
                j = tries.pop() if tries else (lo + hi) >> 1
                if not lo < j < hi:
                    continue
                v = _heval(poly, base + j * w, den)
                if v == 0:  # a rational root: only for a reducible polynomial
                    lo = hi = j
                elif (v > 0) == positive_lo:
                    lo = j
                else:
                    hi = j
            self._enc = (base + lo * w, base + hi * w, den)
        self._digits = max(self._digits, digits)

    def _gen_scaled(self, bits):
        a, b, den = self._enc
        return (a << bits) // den, -((-b << bits) // den)

    def __repr__(self):
        poly = render_poly(self.min_poly, 1, self.gen_name)
        return f"NumberField({poly}, [{self.embedding.lo}, {self.embedding.hi}])"


def field_create(min_poly, interval, gen_name="a"):
    """Create a field from a rational polynomial and an isolating interval."""
    return NumberField(min_poly, interval, gen_name=gen_name)


def rational_field():
    """Degree-1 field isomorphic to Q (generator fixed at 1)."""
    return NumberField([-1, 1], EmbeddingInterval(0, 2))


class NFElem:
    """Field element: integer coefficient vector over a positive denominator."""

    __slots__ = ("field", "coeffs", "den", "_sign")

    def __init__(self, field, coeffs, den):
        self.field = field
        self.coeffs = coeffs
        self.den = den
        self._sign = None

    # -- structure

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def is_rational(self):
        """The rational value if all higher coefficients vanish, else None."""
        if any(self.coeffs[1:]):
            return None
        return Fraction(self.coeffs[0], self.den)

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.field is not self.field:
                raise FieldMismatch("operands belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    # -- ring operations

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        L = lcm(self.den, o.den)
        f1, f2 = L // self.den, L // o.den
        return self.field._make(
            tuple(a * f1 + b * f2 for a, b in zip(self.coeffs, o.coeffs)), L
        )

    __radd__ = __add__

    def __neg__(self):
        e = NFElem(self.field, tuple(-c for c in self.coeffs), self.den)
        if self._sign is not None:
            e._sign = -self._sign
        return e

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
        f = self.field
        n = f.degree
        if n == 1:
            return f._make((self.coeffs[0] * o.coeffs[0],), self.den * o.den)
        a, b = self.coeffs, o.coeffs
        if not any(b[1:]):  # rational factor
            return f._make(tuple(c * b[0] for c in a), self.den * o.den)
        if not any(a[1:]):
            return f._make(tuple(c * a[0] for c in b), self.den * o.den)
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        den = self.den * o.den
        if not any(conv[n:]):
            return f._make(tuple(conv[:n]), den)
        return f._make(tuple(f._reduce_powers(conv)), den * f._pow_rows[1])

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse y, solving x*y = 1 on integers.

        Column j of the multiplication matrix of x is the coefficient vector
        of x*a**j.  Fraction-free elimination of its integer rows, with the
        coefficient vector of 1 appended, and back substitution yield y; a
        singular matrix means that x is a zero divisor of a reducible
        defining polynomial.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        r = self.is_rational()
        f = self.field
        if r is not None:
            return f.from_rational(1 / r)
        n = f.degree
        rows, big = f._mul_matrix(self.coeffs)
        rows[0].append(big)
        for row in rows[1:]:
            row.append(0)
        chosen, red, offs, _, _ = _reduce(None, 1, rows)
        if len(chosen) < n or max(offs) >= n:
            raise DivisionByZero(
                "element is a zero divisor (defining polynomial is reducible)"
            )
        y = _back_substitute(red, offs, [n], lambda row, o: Fraction(row[o]))
        return f.element([self.den * v for v, in y])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        r = o.is_rational()
        if r is not None:
            if r == 0:
                raise DivisionByZero("division by zero")
            return self * self.field.from_rational(1 / r)
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- ordering

    def sign(self):
        """Exact sign in {-1, 0, +1}; zero is decided symbolically."""
        if self._sign is not None:
            return self._sign
        if not any(self.coeffs):
            self._sign = 0
            return 0
        if not any(self.coeffs[1:]):
            self._sign = 1 if self.coeffs[0] > 0 else -1
            return self._sign
        f = self.field
        bits = _INITIAL_BITS
        tested = False
        while True:
            glo, ghi = f._gen_scaled(bits)
            rlo, rhi = _eval_interval(self.coeffs, glo, ghi, bits)
            if rlo > 0:
                self._sign = 1
                return 1
            if rhi < 0:
                self._sign = -1
                return -1
            bits *= 2  # improve the element approximation first
            glo, ghi = f._gen_scaled(bits)
            rlo, rhi = _eval_interval(self.coeffs, glo, ghi, bits)
            if rlo > 0:
                self._sign = 1
                return 1
            if rhi < 0:
                self._sign = -1
                return -1
            if 10 ** f._digits < 1 << bits:  # the enclosure, not the grid, limits
                f.refine_generator(2 * max(f._digits, 1))  # then double generator digits
            if not tested and f._digits >= _ZERO_TEST_DIGITS:
                tested = True
                self._refuse_if_vanishing()

    def _refuse_if_vanishing(self):
        """Raise `VanishingElement` if the value at the embedding is zero.

        A zero of the element at the generator is a common root of the
        element polynomial and the defining polynomial, hence a root of their
        gcd; the enclosure isolates the generator, so counting the roots of
        the gcd in it decides the question exactly.
        """
        f = self.field
        g = _pgcd(self.coeffs, f._int_poly)
        if len(g) < 2:
            return
        a, b, den = f._enc
        if _heval(g, a, den) == 0 or _count_roots(_sturm_chain(g), a, b, den) > 0:
            raise VanishingElement(
                f"element {render_poly(self.coeffs, self.den, f.gen_name)} "
                "vanishes at the embedding: the defining polynomial is reducible"
            )

    def compare(self, other):
        return (self - other).sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def enclosure(self, width=None):
        """Rational interval containing the value, at most `width` wide."""
        r = self.is_rational()
        if r is not None:
            return r, r
        f = self.field
        bits = _INITIAL_BITS
        while True:
            glo, ghi = f._gen_scaled(bits)
            rlo, rhi = _eval_interval(self.coeffs, glo, ghi, bits)
            scale = (1 << bits) * self.den
            lo, hi = Fraction(rlo, scale), Fraction(rhi, scale)
            if width is None or hi - lo <= width:
                return lo, hi
            bits *= 2
            f.refine_generator(2 * max(f._digits, 1))

    def approx(self, digits=15):
        """Rational approximation within 10**-digits of the exact value."""
        lo, hi = self.enclosure(Fraction(1, 10 ** digits))
        return (lo + hi) / 2

    def floor(self):
        """Largest integer <= value, resolved exactly."""
        r = self.is_rational()
        if r is not None:
            return r.numerator // r.denominator
        lo, hi = self.enclosure(Fraction(1, 2))
        fl = lo.numerator // lo.denominator
        fh = hi.numerator // hi.denominator
        if fl == fh:
            return fl
        # exactly one integer boundary in the enclosure: decide by exact sign
        return fh if (self - fh).sign() >= 0 else fh - 1

    def __float__(self):
        return float(self.approx(17))

    # -- identity

    def __eq__(self, other):
        if isinstance(other, NFElem):
            return (
                self.field is other.field
                and self.coeffs == other.coeffs
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() == Fraction(other)
        return NotImplemented

    def __hash__(self):
        r = self.is_rational()
        if r is not None:
            return hash(r)
        return hash((self.coeffs, self.den))

    def __repr__(self):
        return render_elem(self)


# ----------------------------------------------------------------------------
# element text grammar:  integer | rational p/q | ( polynomial in a )
# inside parentheses, terms joined by +/-, powers as a^k, an optional
# "~ decimal" approximation tail is ignored.

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*/^()~]|\S)")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_poly_body(inner, gen_name):
    """Terms of a polynomial literal (no parentheses), as power -> Fraction."""
    tokens = _tokenize(inner)
    coeffs = {}
    i = 0
    n = len(tokens)
    first = True
    while i < n:
        sign = 1
        tok = tokens[i][0]
        if tok in "+-":
            if tok == "-":
                sign = -1
            i += 1
        elif not first:
            raise ElementSyntaxError(f"expected + or - at column {tokens[i][1]}")
        if i >= n:
            raise ElementSyntaxError("dangling sign in element literal")
        first = False
        coef = Fraction(1)
        have_coef = False
        tok = tokens[i][0]
        if tok.isdigit():
            num = int(tok)
            i += 1
            if i < n and tokens[i][0] == "/":
                i += 1
                if i >= n or not tokens[i][0].isdigit():
                    raise ElementSyntaxError("expected denominator after /")
                den = int(tokens[i][0])
                if den == 0:
                    raise ElementSyntaxError("zero denominator")
                coef = Fraction(num, den)
                i += 1
            else:
                coef = Fraction(num)
            have_coef = True
            if i < n and tokens[i][0] in ("*", "**"):
                if tokens[i][0] == "**":
                    raise ElementSyntaxError("use ^ for powers")
                i += 1
                if i >= n:
                    raise ElementSyntaxError("dangling * in element literal")
        power = 0
        if i < n and tokens[i][0][0].isalpha():
            name = tokens[i][0]
            if name != gen_name:
                raise ElementSyntaxError(
                    f"unknown symbol {name!r} (generator is {gen_name!r})"
                )
            i += 1
            power = 1
            if i < n and tokens[i][0] == "^":
                i += 1
                if i >= n or not tokens[i][0].isdigit():
                    raise ElementSyntaxError("expected integer exponent after ^")
                power = int(tokens[i][0])
                i += 1
        elif not have_coef:
            raise ElementSyntaxError(
                f"unexpected token {tokens[i][0]!r} at column {tokens[i][1]}"
            )
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coef
    return coeffs


def parse_elem(text, field):
    """Parse a field element literal."""
    s = text.strip()
    if not s:
        raise ElementSyntaxError("empty element literal")
    if not s.startswith("("):
        return _parse_plain_rational(s, field)
    if not s.endswith(")"):
        raise ElementSyntaxError(f"unbalanced parentheses in {text!r}")
    inner = s[1:-1]
    if "~" in inner:
        inner = inner.split("~", 1)[0]
    coeffs = parse_poly_body(inner, field.gen_name)
    result = field.element(
        [coeffs.get(k, Fraction(0)) for k in range(field.degree)]
    )
    for power, coef in coeffs.items():
        if power >= field.degree and coef:
            # high powers reduce through the field (rare in practice)
            result = result + field.from_rational(coef) * field.gen() ** power
    return result


def _parse_plain_rational(s, field):
    m = re.fullmatch(r"([+-]?\d+)(?:\s*/\s*(\d+))?", s)
    if not m:
        raise ElementSyntaxError(f"not a rational literal: {s!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ElementSyntaxError("zero denominator")
    return field.from_rational(Fraction(num, den))


def _rat_str(fr):
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def render_poly(coeffs, den, gen_name):
    """Polynomial part of the rendering, highest power first, no spaces."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k], den) if not isinstance(coeffs[k], Fraction) else coeffs[k] / den
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if k == 0:
            body = _rat_str(c)
        else:
            var = gen_name if k == 1 else f"{gen_name}^{k}"
            body = var if c == 1 else f"{_rat_str(c)}*{var}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + body)
    return "".join(parts) if parts else "0"


def render_elem(x, approx_digits=6):
    """Canonical text form; non-rational values carry a decimal approximation."""
    r = x.is_rational()
    if r is not None:
        return _rat_str(r)
    poly = render_poly(x.coeffs, x.den, x.field.gen_name)
    approx = fixed_decimal_str(x.approx(approx_digits + 3), approx_digits)
    return f"({poly} ~ {approx})"
