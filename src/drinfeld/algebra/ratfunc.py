"""Rational functions in theta over a finite field, kept reduced.

Invariant: gcd(num, den) = 1 and den is monic.  Arithmetic between two
polynomial values (den == 1) stays on a fast path that never runs a gcd,
which keeps the bulk of the library's computations denominator-free.
"""

from .poly import Pol


class RF:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = Pol.one(num.field)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce and not den.is_one():
            if not num:
                den = Pol.one(num.field)
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num // g
                    den = den // g
                if not den.is_monic():
                    lcinv = den.field.inv(den.leading())
                    num = num.scale(lcinv)
                    den = den.scale(lcinv)
        self.num = num
        self.den = den

    @classmethod
    def from_pol(cls, p):
        return cls(p, None, reduce=False)

    @classmethod
    def zero(cls, field):
        return cls(Pol.zero(field), None, reduce=False)

    @classmethod
    def one(cls, field):
        return cls(Pol.one(field), None, reduce=False)

    @property
    def field(self):
        return self.num.field

    def is_pol(self):
        return self.den.is_one()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return (isinstance(other, RF) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        if self.den.is_one() and other.den.is_one():
            return RF(self.num + other.num, None, reduce=False)
        if self.den == other.den:
            return RF(self.num + other.num, self.den)
        return RF(self.num * other.den + other.num * self.den,
                  self.den * other.den)

    def __neg__(self):
        return RF(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.den.is_one() and other.den.is_one():
            return RF(self.num * other.num, None, reduce=False)
        if not self.num or not other.num:
            return RF.zero(self.field)
        # cross-cancel before multiplying to limit degree growth
        n1, d2 = self.num, other.den
        n2, d1 = other.num, self.den
        if not d2.is_one():
            g = n1.gcd(d2)
            if g.degree > 0:
                n1, d2 = n1 // g, d2 // g
        if not d1.is_one():
            g = n2.gcd(d1)
            if g.degree > 0:
                n2, d1 = n2 // g, d1 // g
        num = n1 * n2
        den = d1 * d2
        if not den.is_monic():
            lcinv = den.field.inv(den.leading())
            num, den = num.scale(lcinv), den.scale(lcinv)
        return RF(num, den, reduce=False)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        num, den = self.den, self.num
        if not den.is_monic():
            lcinv = den.field.inv(den.leading())
            num, den = num.scale(lcinv), den.scale(lcinv)
        return RF(num, den, reduce=False)

    def format(self, symbol="t"):
        if self.den.is_one():
            return self.num.format(symbol)
        return "(%s)/(%s)" % (self.num.format(symbol), self.den.format(symbol))

    def __repr__(self):
        return self.format()
