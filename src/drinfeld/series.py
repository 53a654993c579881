"""Truncated u-expansions and the substitution calculus.

A UExpansion stores the coefficients of u^0..u^{N-1} exactly, over the
quotient ring of a TorsionContext.  The two substitutions that drive
everything else are u(az) (Carlitz rescaling of the argument) and
u(z + beta/n) (fractional-linear shift by a torsion value).
"""

from collections import namedtuple
from functools import reduce

from .algebra import (Pol, QuotientRing, lucas_binomial, monics_up_to_degree,
                      power)
from .carlitz import carlitz_coeffs, goss_polys
from .errors import InsufficientDegreeBound, SignMismatch, Unsupported


WITNESS_WIDTH = 60


def _cut(text):
    if len(text) <= WITNESS_WIDTH:
        return text
    return text[:WITNESS_WIDTH - 3] + "..."


class ModularMeta:
    """Weight, type, level, and nebentypus bookkeeping for a form."""

    __slots__ = ("weight", "type_", "level", "neben")

    def __init__(self, weight, type_, level=None, neben=None):
        self.weight = weight
        self.type_ = type_
        self.level = level
        self.neben = neben

    def __repr__(self):
        return "ModularMeta(k=%r, m=%r)" % (self.weight, self.type_)


class UExpansion:
    """Sum of c_n * u^n for n < prec, values in ctx.ring, as numerators nums
    over one den: a monic Pol in theta over ctx.big, or None (integral, nums
    are the values).  coeffs and coeff(n), the values, exist only on an
    integral series, so no numerator is read as a value.  The algebra, the
    substitutions and the checks read nums and den; format prints values;
    over() divides at once on a reduced context: no reduced series has one."""

    # _powers: the list that powers() keeps, shared with u_of_az's memo
    __slots__ = ("ctx", "nums", "den", "coeffs", "prec", "meta", "_powers")

    def __init__(self, ctx, coeffs, prec=None, meta=None, den=None):
        if prec is None:
            prec = len(coeffs)
        zero = ctx.ring.zero
        coeffs = list(coeffs)[:prec]
        coeffs += [zero] * (prec - len(coeffs))
        self.ctx = ctx
        self.nums = tuple(coeffs)
        if den is None:
            self.coeffs = self.nums
        self.den = den
        self.prec = prec
        self.meta = meta
        self._powers = None

    @classmethod
    def zero(cls, ctx, prec, meta=None):
        return cls(ctx, [], prec, meta)

    @classmethod
    def u(cls, ctx, prec, meta=None):
        return cls(ctx, [ctx.ring.zero, ctx.ring.one], prec, meta)

    @classmethod
    def monomial(cls, ctx, i, prec, meta=None):
        zero = ctx.ring.zero
        return cls(ctx, [zero] * i + [ctx.ring.one], prec, meta)

    @classmethod
    def const(cls, ctx, value, prec, meta=None):
        return cls(ctx, [value], prec, meta)

    def __bool__(self):
        return any(self.nums)

    def order(self):
        for n, c in enumerate(self.nums):
            if c:
                return n
        return self.prec

    def coeff(self, n):
        if n >= self.prec:
            raise IndexError("coefficient %d beyond precision %d" % (n, self.prec))
        return self.coeffs[n]

    def truncate(self, N):
        if N > self.prec:
            raise ValueError("cannot extend precision")
        return UExpansion(self.ctx, self.nums[:N], N, self.meta, self.den)

    def with_meta(self, meta):
        return UExpansion(self.ctx, self.nums, self.prec, meta, self.den)

    def over(self, pol):
        """self / pol for a monic pol in theta: den times pol, with no
        coefficient product (self for pol = 1); on a reduced context the
        values are divided at once (NotReducible where pol vanishes)."""
        ctx = self.ctx
        if pol.is_one():
            return self
        pol = pol.map_to(ctx.big, ctx.emb)
        if not isinstance(ctx.ring, QuotientRing):
            return self.scale(ctx.ring.from_pol(pol).invert())
        return UExpansion(ctx, self.nums, self.prec, self.meta,
                          pol if self.den is None else self.den * pol)

    def _align(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("expansions live over different rings")
        return min(self.prec, other.prec)

    def _common(self, other):
        """(N, both sides' numerators to precision N, den) over one den: as
        they are at equal dens, else each side times its cofactor lcm/den."""
        N = min(self.prec, other.prec)
        a, b, d, e = self.nums[:N], other.nums[:N], self.den, other.den
        if d == e:
            return N, a, b, d
        lcm = d.lcm(e) if d and e else d or e
        lift = self.ctx.ring.from_pol
        x, y = (lift(lcm // f if f else lcm) for f in (d, e))
        return N, tuple(c * x for c in a), tuple(c * y for c in b), lcm

    def __add__(self, other):
        self._align(other)
        N, a, b, den = self._common(other)
        return UExpansion(self.ctx, [x + y for x, y in zip(a, b)], N,
                          self.meta, den)

    def __neg__(self):
        return UExpansion(self.ctx, [-a for a in self.nums], self.prec,
                          self.meta, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        N = self._align(other)
        dot = self.ctx.ring.dot
        left = [(i, a) for i, a in enumerate(self.coeffs[:N]) if a]
        if other is self:
            # a square: each cross pair i < n-i once, against the doubled
            # coefficient, plus the middle square (at p = 2 no cross term)
            two = 2 % self.ctx.field.p
            right = [c.scale_const(two) for c in self.coeffs[:N]]
            out = [dot([(a, right[n - i]) for i, a in left
                        if 2 * i < n and right[n - i]]
                       + [(a, a) for i, a in left if 2 * i == n])
                   for n in range(N)]
        else:
            right = other.coeffs
            out = [dot([(a, right[n - i]) for i, a in left
                        if i <= n and right[n - i]]) for n in range(N)]
        return UExpansion(self.ctx, out, N)

    def __truediv__(self, other):
        """Series quotient; the constant term of other must be a unit.
        out[n] = d0^-1 * x[n] + sum_{i >= 1} (-d0^-1 * d_i) * out[n - i]."""
        N = self._align(other)
        dot = self.ctx.ring.dot
        d0inv = other.coeffs[0].invert()
        steps = [(i, -(d0inv * d))
                 for i, d in enumerate(other.coeffs[:N]) if i and d]
        out = []
        for n, x in enumerate(self.coeffs[:N]):
            out.append(dot([(d0inv, x)] + [(s, out[n - i]) for i, s in steps
                                           if i <= n and out[n - i]]))
        return UExpansion(self.ctx, out, N)

    def scale(self, value):
        return UExpansion(self.ctx, [c * value if c else c for c in self.nums],
                          self.prec, self.meta, self.den)

    def scale_const(self, code):
        return UExpansion(self.ctx, [c.scale_const(code) for c in self.nums],
                          self.prec, self.meta, self.den)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative series powers unsupported")
        return power(self, e, UExpansion.const(self.ctx, self.ctx.ring.one,
                                               self.prec))

    def powers(self, count):
        """[S^1, ..., S^count] as coefficient tuples, cut before the first
        power of order >= prec (it and all later ones are zero).  Built one
        product at a time and kept, so each power is formed once; the
        order is read only when a power is missing."""
        if self._powers is None:
            self._powers = [self.coeffs] if self else []
        kept = self._powers
        if len(kept) < count:
            order = self.order()
            if order:
                count = min(count, (self.prec - 1) // order)
            while len(kept) < count:
                prev = UExpansion(self.ctx, kept[-1])
                other = prev if len(kept) == 1 else self  # S^2 as a square
                kept.append((prev * other).coeffs)
        return kept[:count]

    def inverse(self):
        """Series inverse; the constant term must be a unit."""
        return UExpansion.const(self.ctx, self.ctx.ring.one, self.prec) / self

    def __eq__(self, other):
        if not isinstance(other, UExpansion) or self.ctx is not other.ctx:
            return False
        return self.prec == other.prec and self.agrees_with(other)

    def agrees_with(self, other):
        """Equality of all coefficients up to the shared precision."""
        _, a, b, _ = self._common(other)
        return a == b

    def first_difference(self, other):
        _, a, b, _ = self._common(other)
        return next((n for n, (x, y) in enumerate(zip(a, b)) if x != y),
                    None)

    def difference(self, other):
        """None if the coefficients agree up to the shared precision, else a
        witness 'u^n: a != b' with both coefficients formatted and each cut
        to WITNESS_WIDTH characters."""
        n = self.first_difference(other)
        if n is None:
            return None
        return "u^%d: %s != %s" % (n, _cut(self.nums[n].format("t", self.den)),
                                   _cut(other.nums[n].format("t", other.den)))

    def format(self, symbol="t"):
        """The values: each numerator's coordinates over den, reduced."""
        parts = []
        for n, c in enumerate(self.nums):
            if not c:
                continue
            mono = "" if n == 0 else ("u" if n == 1 else "u^%d" % n)
            cs = "(%s)" % c.format(symbol, self.den)
            parts.append(cs + ("*" + mono if mono else ""))
        body = " + ".join(parts) if parts else "0"
        return "%s + O(u^%d)" % (body, self.prec)

    def __repr__(self):
        return self.format()


def bound_for_precision(field, N, min_exp=1):
    """Smallest degree bound b with min_exp * q^(b+1) >= N, so that terms
    at monics of degree > b cannot touch coefficients below N."""
    q = field.order
    b = 0
    while min_exp * q ** (b + 1) < N:
        b += 1
    return b


def combination(ctx, terms, N, meta=None, den=None):
    """sum_k c_k * S_k to precision N for terms [(c_k, coefficients of S_k)],
    one ring.dot_once each, so the S_k (a u_of_az memo) keep their caches;
    over den when given, for terms that are numerators over den."""
    dot = ctx.ring.dot_once
    return UExpansion(ctx, [dot([(c, s[n]) for c, s in terms if s[n]])
                            for n in range(N)], N, meta, den)


def poly_eval_series(coeffs, S):
    """G(S) for a polynomial G (list of ring elements, low first), as
    sum_s c_s X^s over the powers that X keeps, one ring.dot per
    coefficient (which keeps the powers' column caches for the next read):
    c = G and X = S at a series S, and at a value S = moebius_of_series(X,
    lam), c = shift_by_value(G, lam), since G(X/(lam X + 1)) is G(u/(lam u
    + 1)) at u = X.  Only the powers of order below the precision are
    formed, and at a series none past deg G."""
    if isinstance(S, MoebiusValue):
        X = S.X
        pows = X.powers(X.prec)
        c = shift_by_value(UExpansion(X.ctx, coeffs, len(pows) + 1),
                           S.lam).coeffs
    else:
        X, c = S, coeffs
        pows = X.powers(len(coeffs) - 1)
    ctx, N = X.ctx, X.prec
    terms = [(cs, p) for cs, p in
             zip(c, [UExpansion.const(ctx, ctx.ring.one, N).coeffs] + pows)
             if cs]
    dot = ctx.ring.dot
    return UExpansion(ctx, [dot([(cs, p[n]) for cs, p in terms if p[n]])
                            for n in range(N)], N)


def poly_eval_scalar(coeffs, x, ring):
    """Evaluate a polynomial (ring-element coefficients) at a ring element."""
    out = ring.zero
    for c in reversed(coeffs):
        out = out * x + c
    return out


def goss_den(field, k):
    """The monic D with D*G_k integral: the lcm of the denominators of
    G_k's coefficients, Carlitz factorials, so 1 for k <= q."""
    return reduce(Pol.lcm, (c.den for c in goss_polys(field, k)[k]))


def goss_coeffs_in(ctx, k):
    """D*G_k's coefficients (D = goss_den) in the context ring (REl)."""
    D = goss_den(ctx.field, k)
    return [ctx.lift_poly(c.num * (D // c.den))
            for c in goss_polys(ctx.field, k)[k]]


def u_of_az(ctx, a, N):
    """u(az) as a u-series: u^{q^d} / (sum_i [a]_i u^{q^d - q^i}).  Kept
    on ctx per (a, N) as the list of its powers that UExpansion.powers
    grows, shared by every series returned for that (a, N); the memo holds
    coefficient tuples only, no series."""
    if not a:
        raise ValueError("a must be nonzero")
    key = (a.c, N)
    kept = ctx.u_az.get(key)
    if kept is None:
        q = ctx.field.order
        size = q ** a.degree
        kept = ctx.u_az[key] = []  # size >= N: u(az) is zero to precision N
        if size < N:
            zero = ctx.ring.zero
            den = [zero] * (N - size)
            for i, c in enumerate(carlitz_coeffs(a)):
                if c and size - q ** i < N - size:
                    den[size - q ** i] = ctx.lift_poly(c)
            kept.append((zero,) * size + UExpansion(ctx, den).inverse().coeffs)
    out = UExpansion(ctx, kept[0] if kept else (), N)
    out._powers = kept
    return out


def shift_by_sums(f, sums):
    """sum_b w_b * f(u/(lam_b*u + 1)) from sums[j] = sum_b w_b * lam_b^j,
    j < max(prec - 1, 1): out[n] = sum_i c_i * binom(-i, n-i) * sums[n-i],
    one dot per coefficient, with c_i scaled once per binomial value; the
    c_i are f's numerators, and the output keeps f's den."""
    ctx = f.ctx
    p = ctx.field.p
    dot = ctx.ring.dot
    scaled = [(i, [c.scale_const(b) for b in range(p)])
              for i, c in enumerate(f.nums) if c]
    out = []
    for n in range(f.prec):
        pairs = []
        for i, cs in scaled:
            if i > n:
                break
            b = lucas_binomial(-i, n - i, p)  # zero for i = 0 < n
            if b and sums[n - i]:
                pairs.append((cs[b], sums[n - i]))
        out.append(dot(pairs))
    return UExpansion(ctx, out, f.prec, None, f.den)


def shift_by_value(f, lam):
    """Substitute u -> u/(lam*u + 1): shift_by_sums with the powers of lam."""
    return shift_by_sums(f, f.ctx.powers(lam, f.prec - 1))


# the value X/(lam*X + 1) that moebius_of_series returns, as its two parts
MoebiusValue = namedtuple("MoebiusValue", "X lam")


def moebius_of_series(X, lam):
    """The fractional-linear value X/(lam*X + 1) for a series X of positive
    order — this is u(w + beta/n) when X is the series of u(w) — as the
    record (X, lam), with no coefficients of its own: poly_eval_series
    evaluates G at it from the powers that X keeps."""
    order = X.order()
    if not order:
        raise Unsupported("Moebius value of a series of order %d" % order)
    return MoebiusValue(X, lam)


def rescale_arg(f, a):
    """f(az): substitute u -> u_of_az(a) in f's numerators, keeping its
    den."""
    if a.is_one():
        return f
    g = poly_eval_series(list(f.nums), u_of_az(f.ctx, a, f.prec))
    return UExpansion(f.ctx, g.nums, g.prec, None, f.den)


class AExpansion:
    """Sum over monic a of c_a * u(az)^i (power type) or c_a * G_k(u(az))
    (goss type) up to a degree bound: an explicit coefficient map, or a
    rule whose value at a is computed when coefficient(a) first reads it."""

    __slots__ = ("kind", "index", "weight", "type_", "neben", "coeffs",
                 "rule", "bound", "ctx")

    def __init__(self, ctx, kind, index, weight, type_, coeffs, bound,
                 neben=None, rule=None):
        if kind not in ("power", "goss"):
            raise ValueError("kind must be 'power' or 'goss'")
        if index < 1:
            raise ValueError("index must be >= 1")
        self.ctx = ctx
        self.kind = kind
        self.index = index
        self.weight = weight
        self.type_ = type_
        self.neben = neben
        self.coeffs = dict(coeffs)
        self.rule = rule
        self.bound = bound

    @classmethod
    def from_rule(cls, ctx, kind, index, weight, type_, rule, bound,
                  neben=None):
        return cls(ctx, kind, index, weight, type_, {}, bound, neben, rule)

    def coefficient(self, a):
        """c_a for monic a; zero beyond the bound and off an explicit map."""
        c = self.coeffs.get(a.c)
        if c is None:
            if self.rule is None or a.degree > self.bound:
                return self.ctx.ring.zero
            c = self.coeffs[a.c] = self.rule(a)
        return c

    def meta(self):
        return ModularMeta(self.weight, self.type_, neben=self.neben)

    def render(self, N):
        """Truncated u-expansion sum_a c_a G(u(az)), G = X^i or G_k, as one
        combination by c_a g_j of the powers u(az)^j that the u_of_az memo
        keeps, over goss_den for G_k; the bound must reach u^N."""
        ctx, q = self.ctx, self.ctx.field.order
        min_exp = self.index if self.kind == "power" else 1
        if self.bound < bound_for_precision(ctx.field, N, min_exp):
            raise InsufficientDegreeBound(
                "degree bound %d cannot reach precision %d" % (self.bound, N))
        goss = self.kind == "goss"
        g = (goss_coeffs_in(ctx, self.index) if goss
             else [ctx.ring.zero] * self.index + [ctx.ring.one])
        terms = []
        for a in monics_up_to_degree(ctx.field, self.bound):
            c = min_exp * q ** a.degree < N and self.coefficient(a)
            if c:  # g_0 = 0: G is X^i or G_k
                terms += [(c * gj, p) for gj, p in zip(g[1:], u_of_az(
                    ctx, a, N).powers(len(g) - 1)) if gj]
        out = combination(ctx, terms, N, self.meta())
        return out.over(goss_den(ctx.field, self.index)) if goss else out


def eisenstein_components(ctx, k, level, N):
    """The series E_a = sum_{c in A} G_k(u(cz + a/level)) to precision N
    as (den, {a.c: numerators of E_a}) over the monic units a mod level,
    den = D*level^k (D = goss_den); the c = 0 term is G_k(1/lambda_a), and
    no c with q^deg c >= N reaches u^N.  The other units follow from
    E_{xi a} = xi^(-k) E_a (see fold_units).

    Writing c = xi*c' with c' monic and xi in F_q^*, u(cz) = u(c'z)/xi,
    and summing over xi multiplies u(c'z)^n by sum_xi xi^(-n), which is
    -1 when (q-1) | n and 0 otherwise.  So with the power sums
    P_m = sum_{c' monic} u(c'z)^(m(q-1)) and s = G_k(u/(lambda_a u + 1)),
    E_a = G_k(1/lambda_a) - sum_{m >= 1} s_{m(q-1)} P_m.  As deg G_k = k,
    G_k(1/lambda_a) = sum_i g_i mu^i level^(k-i) / level^k with the
    integral mu = level/lambda_a (TorsionContext.torsion_cofactor), so
    D*level^k*E_a is one combination, level^k folded into the P_m weights.
    """
    q = ctx.field.order
    step = q - 1
    P = [UExpansion.zero(ctx, N) for _ in range((N - 1) // step)]
    for c in monics_up_to_degree(ctx.field, bound_for_precision(ctx.field, N)):
        count = (N - 1) // (step * q ** c.degree)  # powers of order < N
        for m in range(count):  # W = V^(m+1), V = u(cz)^(q-1)
            W = W * V if m else (V := u_of_az(ctx, c, N) ** step)
            P[m] = P[m] + W
    gk = goss_coeffs_in(ctx, k)
    G = UExpansion(ctx, gk, N)
    minus_lk = -ctx.lift_poly(level ** k)
    homogeneous = [g * ctx.lift_poly(level ** (k - i)) if g else g
                   for i, g in enumerate(gk)]
    cofactor = ctx.torsion_cofactor(level)
    one = UExpansion.const(ctx, ctx.ring.one, N).coeffs
    out = {}
    for a in ctx.units(level):
        if a.is_monic():
            lam = ctx.exp_at(a, level)
            s = shift_by_value(G, lam).coeffs[step::step]  # s_{m(q-1)}
            out[a.c] = combination(
                ctx, [(poly_eval_scalar(homogeneous, cofactor(lam), ctx.ring),
                       one)]
                + [(x * minus_lk, Pm.coeffs) for x, Pm in zip(s, P) if x], N)
    return goss_den(ctx.field, k) * level ** k, out


def fold_units(ctx, k, level, comp):
    """Fold a map {b.c: ring element} over the units b mod level onto the
    monic units: {a.c: w(a)} with w(a) = sum_xi xi^(-k) * comp(xi a) over
    xi in F_q^*.  Since u(xi w) = u(w)/xi and G_k(xi X) = xi^k G_k(X),
    E_{xi a} = xi^(-k) E_a, so sum_b comp(b) E_b = sum_a w(a) E_a."""
    field = ctx.field
    twists = [(xi, ctx.emb[field.pow(xi, -k)]) for xi in field.units()]
    return {a.c: sum((comp[a.scale(xi).c].scale_const(x) for xi, x in twists),
                     ctx.ring.zero)
            for a in ctx.units(level) if a.is_monic()}


def require_sign(chi, k):
    """Raise SignMismatch unless s_chi = -k mod q-1, the condition under
    which the Eisenstein series of weight k with character chi exist."""
    if (chi.sign + k) % (chi.field.order - 1):
        raise SignMismatch("need s_chi = -k mod q-1 (got s=%d, k=%d)"
                           % (chi.sign, k))


class TwistedEisenstein:
    """The weight-k Eisenstein object sum_a comp(a) * E~_{(0,a)} where
    E~_{(0,a)} := (p^k / pi^k) E_{(0,a)} = sum_{c in A} G_k(u(cz + a/p)).

    components maps unit residues a mod p to coefficients; the canonical
    chi-average has comp(a) = chi^{-1}(a).
    """

    __slots__ = ("ctx", "k", "chi", "components")

    def __init__(self, ctx, k, chi, components):
        self.ctx = ctx
        self.k = k
        self.chi = chi
        self.components = dict(components)

    @property
    def level(self):
        """The level, i.e. the conductor of the character (which must
        divide the context modulus)."""
        return self.chi.conductor

    @classmethod
    def build(cls, ctx, k, chi):
        require_sign(chi, k)
        inv = chi.inverse()
        comp = {a.c: ctx.ring.one.scale_const(ctx.char_value(inv, a))
                for a in ctx.units(ctx.conductor_of(chi))}
        return cls(ctx, k, chi, comp)

    def meta(self):
        return ModularMeta(self.k, 0, level=self.level, neben=self.chi)

    def scaled_by(self, value):
        return TwistedEisenstein(self.ctx, self.k, self.chi,
                                 {a: c * value for a, c in self.components.items()})

    def constant_term(self):
        """(numerator, den) of sum_a comp(a) G_k(1/lambda_a), at u^0."""
        R = self.render(1)
        return R.nums[0], R.den

    def render(self, N):
        """Truncated u-expansion sum_a comp(a) * E_a over the units a,
        computed as the combination sum_{a monic} w(a) * E_a with the
        components folded onto the monic units by fold_units."""
        ctx = self.ctx
        den, comps = eisenstein_components(ctx, self.k, self.level, N)
        w = fold_units(ctx, self.k, self.level, self.components)
        return combination(ctx, [(w[key], E.coeffs) for key, E in
                                 comps.items()], N, self.meta()).over(den)
