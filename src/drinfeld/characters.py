"""Dirichlet characters on A = F_q[theta] with square-free conductor.

A character is determined by one chosen root zeta_i of each prime factor
p_i of the conductor together with an exponent e_i:
chi(a) = a(zeta_1)^{e_1} * ... * a(zeta_r)^{e_r}, with the convention
0^0 = 1 so that exponent-zero factors never kill a value.
"""

from functools import lru_cache, partial
from math import lcm

from .algebra import (Pol, factor_squarefree_monic, finite_field,
                      is_irreducible, lucas_binomial, monics_up_to_degree,
                      polys_below_degree, power)
from .errors import ConductorMismatch, NotPrimitive


class DirichletCharacter:
    """factors: (prime, root code in big, exponent); emb maps field to big."""

    __slots__ = ("field", "big", "emb", "factors", "conductor", "_values")

    def __init__(self, field, factors, big=None):
        for prime, _, _ in factors:
            if not (prime.is_monic() and is_irreducible(prime)):
                raise ValueError("%s is not a monic prime" % prime.format())
        if big is None:
            D = lcm(*(prime.degree for prime, _, _ in factors))
            big = finite_field(field.p, field.n * D)
        emb = big.embedding(field)
        conductor = Pol.one(field)
        seen = set()
        resolved = []
        for prime, root, e in factors:
            if prime.c in seen:
                raise ValueError("repeated prime factor")
            seen.add(prime.c)
            if root is None:
                roots = prime.roots_in(big, emb)
                if not roots:
                    raise ValueError("no root of %s in the chosen constant field"
                                     % prime.format())
                root = min(roots)
            elif root not in big.elements() or prime.eval_in(big, root, emb):
                raise ValueError("%r is not a root of %s in %r"
                                 % (root, prime.format(), big))
            resolved.append((prime, root,
                             e % (field.order ** prime.degree - 1)))
            conductor = conductor * prime
        self.field = field
        self.big = big
        self.emb = emb
        self.factors = tuple(resolved)
        self.conductor, self._values = conductor, None

    @classmethod
    def from_conductor(cls, modulus, exponents, big=None):
        """Character on a square-free monic modulus with auto-chosen roots.

        exponents: int (same for all factors) or list aligned with the
        factorization order of the modulus.
        """
        primes = factor_squarefree_monic(modulus)
        if isinstance(exponents, int):
            exponents = [exponents] * len(primes)
        if len(exponents) != len(primes):
            raise ValueError("need one exponent per prime factor")
        return cls(modulus.field, [(p, None, e) for p, e in zip(primes, exponents)],
                   big=big)

    @classmethod
    def trivial(cls, modulus, big=None):
        return cls.from_conductor(modulus, 0, big=big)

    # -- structure --

    def is_trivial(self):
        return all(e == 0 for _, _, e in self.factors)

    def is_primitive(self):
        return all(e > 0 for _, _, e in self.factors)

    @property
    def sign(self):
        q = self.field.order
        return sum(e for _, _, e in self.factors) % (q - 1)

    def _with_exponents(self, exponents):
        """The character on this one's checked primes and roots with the
        given exponents, one per factor; nothing is validated again."""
        q = self.field.order
        out = object.__new__(DirichletCharacter)
        out.field, out.big, out.emb = self.field, self.big, self.emb
        out.conductor, out._values = self.conductor, None
        out.factors = tuple((p, r, e % (q ** p.degree - 1)) for (p, r, _), e
                            in zip(self.factors, exponents))
        return out

    def inverse(self):
        return self._with_exponents(-e for _, _, e in self.factors)

    def __mul__(self, other):
        if not self.same_roots(other):
            raise ConductorMismatch("characters live on different data")
        return self._with_exponents(e1 + e2 for (_, _, e1), (_, _, e2)
                                    in zip(self.factors, other.factors))

    def same_roots(self, other):
        return (self.big is other.big
                and len(self.factors) == len(other.factors)
                and all(p1 == p2 and r1 == r2 for (p1, r1, _), (p2, r2, _)
                        in zip(self.factors, other.factors)))

    def __eq__(self, other):
        return (isinstance(other, DirichletCharacter) and self.same_roots(other)
                and all(e1 == e2 for (_, _, e1), (_, _, e2)
                        in zip(self.factors, other.factors)))

    def __hash__(self):
        return hash((id(self.big),) + tuple((p.c, r, e) for p, r, e in self.factors))

    # -- evaluation --

    def eval(self, a):
        """chi(a) as a big-field code; 0 exactly when a shares a factor
        with the conductor at which the exponent is positive."""
        big = self.big
        out = 1
        for prime, root, e in self.factors:
            if e == 0:
                continue
            v = a.eval_in(big, root, self.emb)
            if v == 0:
                return 0
            out = big.mul(out, big.pow(v, e))
        return out

    def values(self):
        """chi on polys_below_degree(field, deg conductor), tabulated once."""
        if self._values is None:
            self._values = [self.eval(a) for a in polys_below_degree(
                self.field, self.conductor.degree)]
        return self._values

    def __repr__(self):
        return "chi{%s}" % "; ".join("%s^%d@%d" % (p.format(), e, r)
                                     for p, r, e in self.factors)


@lru_cache(maxsize=None)
def _residue_differences(field, d):
    """{r.c: [index of r - a for a in polys_below_degree(field, d)]}."""
    residues = polys_below_degree(field, d)
    index = {r.c: i for i, r in enumerate(residues)}
    return {r.c: [index[(r - a).c] for a in residues] for r in residues}


def convolve(chi1, chi2, delta):
    """(chi1 * chi2)(delta) = sum over residues a of chi1(a)chi2(delta-a),
    from the value tables; delta is read mod the conductor."""
    _require_pair(chi1, chi2)
    big, n, values2 = chi1.big, chi1.conductor, chi2.values()
    out = 0
    for v1, j in zip(chi1.values(),
                     _residue_differences(chi1.field, n.degree)[(delta % n).c]):
        if v1 and values2[j]:
            out = big.add(out, big.mul(v1, values2[j]))
    return out


def jacobi_factor(chi1, chi2):
    """Closed form of the convolution: the constant
    prod_i (-1)^{1-j_i} * binom(k_i, |p_i|-1-j_i) and the product character,
    so that (chi1*chi2)(delta) = factor * (chi1 chi2)(delta)."""
    _require_pair(chi1, chi2)
    field = chi1.field
    q = field.order
    p = field.p
    val = 1
    for (prime, _, k), (_, _, j) in zip(chi1.factors, chi2.factors):
        size = q ** prime.degree
        b = lucas_binomial(k, size - 1 - j, p)
        if (1 - j) % 2:
            b = (-b) % p
        val = val * b % p
    return chi1.big.scalar(val), chi1 * chi2


def _require_pair(chi1, chi2):
    if not chi1.same_roots(chi2):
        raise ConductorMismatch("convolution requires identical conductor data")
    for (prime, _, k), (_, _, j) in zip(chi1.factors, chi2.factors):
        size = chi1.field.order ** prime.degree
        if not (1 <= k <= size - 2 and 1 <= j <= size - 2):
            raise ConductorMismatch("exponents must lie in 1..|p|-2 at every factor")


def root_power_rows(ctx, root, exponents):
    """The orbit_sums rows of the weights beta -> beta(root)^e, e in
    exponents, read as 0 where beta(root) = 0; a row's degree is its e, as
    (c*beta)(root) = c*beta(root) for c in F_q^*.  orbit_sums reads all
    rows at one beta in turn, so each beta(root) is evaluated once."""
    last = [None, 0]  # the beta read last, and beta(root)

    def weight(e, beta):
        if beta is not last[0]:
            last[:] = beta, beta.eval_in(ctx.big, root, ctx.emb)
        return last[1] and ctx.big.pow(last[1], e)
    return [(e, partial(weight, e)) for e in exponents]


def _basic_gauss_sum(ctx, prime, root):
    """g(chi_zeta) = sum_{delta != 0} chi_zeta(delta)^{-1} C_delta(lambda),
    chi_zeta(delta) = delta(zeta): an orbit sum at j = 1."""
    return orbit_sums(ctx, prime, root_power_rows(ctx, root, [-1]), [1])[0][0]


def gauss_thakur(chi, ctx):
    """Gauss-Thakur sum g(chi) in the torsion ring of the conductor.

    Each exponent e_i is expanded in base q; g(chi) is the product over
    all digits of the basic sums g(chi_{zeta_i^{q^j}})^{e_ij}.  Kept in
    ctx.gauss, so each context computes it once per character.
    """
    if not chi.is_primitive():
        if chi.is_trivial():
            return ctx.ring.one
        raise NotPrimitive("Gauss-Thakur sums need a primitive character")
    ctx.conductor_of(chi)
    if chi.big is not ctx.big:
        raise ConductorMismatch("character values lie in %r, not in %r"
                                % (chi.big, ctx.big))
    cached = ctx.gauss.get(chi)
    if cached is not None:
        return cached
    big = ctx.big
    q = chi.field.order
    out = ctx.ring.one
    for prime, r, e in chi.factors:
        while e:
            digit = e % q
            if digit:
                basic = _basic_gauss_sum(ctx, prime, r)
                out = out * power(basic, digit, ctx.ring.one)
            e //= q
            r = big.pow(r, q)
    ctx.gauss[chi] = out
    return out


def orbit_sums(ctx, n, rows, exponents):
    """For each j in exponents, {r: sum_{beta mod n} w(beta) lambda_beta^j}
    over the rows r = (s, w) with s + j = 0 mod q-1; every other row sums
    to zero.  lambda_beta = exp(beta/n), n dividing the context modulus,
    and each weight w maps beta to a big-field code with w(c*beta) =
    c^s w(beta) for c in F_q^*, so replacing beta by c*beta scales a term
    by c^(s+j); in the rows kept the q-1 = -1 terms of each orbit F_q^*
    beta are equal: one combine per j over beta = 0 (its own orbit) and
    the monic beta with a nonzero code, by the codes w(0) and -w(beta).
    ctx.powers gets the annihilator n, and j's class if there is one."""
    big, minus, step = ctx.big, ctx.big.scalar(-1), ctx.field.order - 1
    count = max(exponents, default=0) + 1
    classes = {}  # class of j mod q-1 -> the rows it reads
    for r, (s, _) in enumerate(rows):
        classes.setdefault(-s % step, []).append(r)
    cls = next(iter(classes)) if len(classes) == 1 else None
    cols, pows = [], []
    for b in [Pol.zero(ctx.field)] + monics_up_to_degree(ctx.field,
                                                         n.degree - 1):
        col = [big.mul(minus, w(b)) if b else w(b) for _, w in rows]
        if any(col):
            lam = ctx.exp_at(b, n)
            cols.append(col)
            # x^0, x^1 alone (a basic Gauss sum) need no chain of powers
            pows.append(ctx.powers(lam, count, cls, n) if count > 2
                        else (ctx.ring.one, lam))
    codes = [[col[r] for col in cols] for r in range(len(rows))]
    out = []
    for j in exponents:
        live = classes.get(j % step, [])
        sums = ctx.ring.combine([pw[j] for pw in pows],
                                [codes[r] for r in live]) if live else []
        out.append(dict(zip(live, sums)))
    return out


def power_sums(ctx, n, exponents, chi):
    """[sum_{beta mod n} chi^{-1}(beta) exp(beta/n)^j for j in exponents], n
    the conductor of chi (dividing the context modulus): the orbit sums of
    the row chi^{-1}, of degree -sign chi as chi^{-1}(c) = c^(-sign chi):
    so only the lambda_beta^j with j = sign chi mod q-1 are formed."""
    inv = chi.inverse()
    rows = [(-chi.sign, lambda beta: ctx.char_value(inv, beta))]
    return [sums.get(0, ctx.ring.zero)
            for sums in orbit_sums(ctx, n, rows, exponents)]
