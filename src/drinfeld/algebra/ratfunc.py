"""Rational functions in theta over a finite field, kept reduced.

Invariant: gcd(num, den) = 1 and den is monic; the constructor restores it.
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

    def __add__(self, other):
        return RF(self.num * other.den + other.num * self.den,
                  self.den * other.den)

    def __neg__(self):
        return RF(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RF(self.num * other.num, self.den * other.den)

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
