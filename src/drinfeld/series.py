"""Truncated u-expansions and the substitution calculus.

A UExpansion stores the coefficients of u^0..u^{N-1} exactly, over the
quotient ring of a TorsionContext.  The three substitutions that drive
everything else are u(az) (Carlitz rescaling of the argument),
u(z + beta/n) (fractional-linear shift by a torsion value), and descent
from the sub-parameter v = u(z/q) back to u (descend).
"""

from .algebra import Pol, lucas_binomial, monics_up_to_degree, power
from .carlitz import carlitz_coeffs, goss_polys
from .errors import (InsufficientDegreeBound, NotDescendable, SignMismatch,
                     Unsupported)


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
    """Sum of coeffs[n] * u^n for n < prec, coefficients in ctx.ring."""

    # _moebius: moebius_of_series's coefficient tuples of X*(-X)^j for X = self
    # _origin: on a value M = moebius_of_series(X, lam) only, the pair
    # (X._moebius, lam) that poly_eval_series reads
    __slots__ = ("ctx", "coeffs", "prec", "meta", "var", "_moebius", "_origin")

    def __init__(self, ctx, coeffs, prec=None, meta=None, var="u"):
        if prec is None:
            prec = len(coeffs)
        zero = ctx.ring.zero
        coeffs = list(coeffs)[:prec]
        coeffs += [zero] * (prec - len(coeffs))
        self.ctx = ctx
        self.coeffs = tuple(coeffs)
        self.prec = prec
        self.meta = meta
        self.var = var
        self._moebius = None
        self._origin = None

    @classmethod
    def zero(cls, ctx, prec, meta=None, var="u"):
        return cls(ctx, [], prec, meta, var)

    @classmethod
    def u(cls, ctx, prec, meta=None, var="u"):
        return cls(ctx, [ctx.ring.zero, ctx.ring.one], prec, meta, var)

    @classmethod
    def monomial(cls, ctx, i, prec, meta=None, var="u"):
        zero = ctx.ring.zero
        return cls(ctx, [zero] * i + [ctx.ring.one], prec, meta, var)

    @classmethod
    def const(cls, ctx, value, prec, meta=None, var="u"):
        return cls(ctx, [value], prec, meta, var)

    def __bool__(self):
        return any(self.coeffs)

    def order(self):
        for n, c in enumerate(self.coeffs):
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
        return UExpansion(self.ctx, self.coeffs[:N], N, self.meta, self.var)

    def with_meta(self, meta):
        return UExpansion(self.ctx, self.coeffs, self.prec, meta, self.var)

    def _align(self, other):
        if self.ctx is not other.ctx:
            raise ValueError("expansions live over different rings")
        return min(self.prec, other.prec)

    def __add__(self, other):
        N = self._align(other)
        return UExpansion(self.ctx, [a + b for a, b in
                                     zip(self.coeffs[:N], other.coeffs[:N])],
                          N, self.meta, self.var)

    def __neg__(self):
        return UExpansion(self.ctx, [-a for a in self.coeffs], self.prec,
                          self.meta, self.var)

    def __sub__(self, other):
        N = self._align(other)
        return UExpansion(self.ctx, [a - b for a, b in
                                     zip(self.coeffs[:N], other.coeffs[:N])],
                          N, self.meta, self.var)

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
        return UExpansion(self.ctx, out, N, None, self.var)

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
        return UExpansion(self.ctx, out, N, None, self.var)

    def scale(self, value):
        return UExpansion(self.ctx, [c * value if c else c for c in self.coeffs],
                          self.prec, self.meta, self.var)

    def scale_const(self, code):
        return UExpansion(self.ctx, [c.scale_const(code) for c in self.coeffs],
                          self.prec, self.meta, self.var)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative series powers unsupported")
        return power(self, e, UExpansion.const(self.ctx, self.ctx.ring.one,
                                               self.prec, var=self.var))

    def inverse(self):
        """Series inverse; the constant term must be a unit."""
        return UExpansion.const(self.ctx, self.ctx.ring.one, self.prec,
                                var=self.var) / self

    def __eq__(self, other):
        if not isinstance(other, UExpansion) or self.ctx is not other.ctx:
            return False
        N = min(self.prec, other.prec)
        return self.coeffs[:N] == other.coeffs[:N] and self.prec == other.prec

    def agrees_with(self, other):
        """Equality of all coefficients up to the shared precision."""
        N = min(self.prec, other.prec)
        return self.coeffs[:N] == other.coeffs[:N]

    def first_difference(self, other):
        N = min(self.prec, other.prec)
        for n in range(N):
            if self.coeffs[n] != other.coeffs[n]:
                return n
        return None

    def difference(self, other):
        """None if the coefficients agree up to the shared precision, else a
        witness 'u^n: a != b' with both coefficients formatted and each cut
        to WITNESS_WIDTH characters."""
        n = self.first_difference(other)
        if n is None:
            return None
        return "%s^%d: %s != %s" % (self.var, n, _cut(self.coeffs[n].format()),
                                    _cut(other.coeffs[n].format()))

    def format(self, symbol="t"):
        parts = []
        for n, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "" if n == 0 else (self.var if n == 1 else "%s^%d" % (self.var, n))
            cs = "(%s)" % c.format(symbol)
            parts.append(cs + ("*" + mono if mono else ""))
        body = " + ".join(parts) if parts else "0"
        return "%s + O(%s^%d)" % (body, self.var, self.prec)

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


def poly_eval_series(coeffs, S):
    """Evaluate a polynomial G (list of ring elements, low first) at a
    series of positive order, by accumulating truncated powers.  A value
    S = X/(lam*X + 1) of moebius_of_series with deg G >= 2 forms no power
    of S: G(S) = sum_s c_s X^s with c = shift_by_value(G, lam), and
    X^s = (-1)^(s-1) Y_{s-1} is read off the powers of X recorded on S, so
    each coefficient is one dot."""
    ctx = S.ctx
    N = S.prec
    if S._origin is not None and len(coeffs) > 2:
        ys, lam = S._origin
        c = shift_by_value(UExpansion(ctx, coeffs, len(ys) + 1), lam).coeffs
        es = [c[s] if s % 2 else -c[s] for s in range(1, len(ys) + 1)]
        return UExpansion(ctx, [coeffs[0]] + [
            ctx.ring.dot([(e, y[n]) for e, y in zip(es, ys) if e and y[n]])
            for n in range(1, N)], N, None, S.var)
    out = UExpansion.const(ctx, coeffs[0], N, var=S.var) if coeffs else \
        UExpansion.zero(ctx, N, var=S.var)
    power = None
    ordS = S.order()
    for i in range(1, len(coeffs)):
        if i * ordS >= N:
            break
        power = S if power is None else power * S
        if coeffs[i]:
            out = out + power.scale(coeffs[i])
    return out


def poly_eval_scalar(coeffs, x, ring):
    """Evaluate a polynomial (ring-element coefficients) at a ring element."""
    out = ring.zero
    for c in reversed(coeffs):
        out = out * x + c
    return out


def goss_coeffs_in(ctx, k):
    """G_k's coefficients lifted into the context ring (list of REl)."""
    return [ctx.lift_poly(c.num) if c.den.is_one()
            else ctx.lift_poly(c.num) * ctx.lift_poly(c.den).invert()
            for c in goss_polys(ctx.field, k)[k]]


def u_of_az(ctx, a, N, var="u"):
    """u(az) as a u-series: u^{q^d} / (sum_i [a]_i u^{q^d - q^i})."""
    if not a:
        raise ValueError("a must be nonzero")
    field = ctx.field
    q = field.order
    d = a.degree
    size = q ** d
    ring = ctx.ring
    zero = ring.zero
    den = [zero] * N
    for i, c in enumerate(carlitz_coeffs(a)):
        if c and size - q ** i < N:
            den[size - q ** i] = ctx.lift_poly(c)
    if size >= N:
        # only the constant term of the inverse could matter, and even the
        # leading u^{q^d} is out of range
        return UExpansion.zero(ctx, N, var=var)
    inv = UExpansion(ctx, den, N - size, var=var).inverse()
    out = [zero] * size + list(inv.coeffs)
    return UExpansion(ctx, out, N, var=var)


def shift_by_sums(f, sums, var=None):
    """sum_b w_b * f(u/(lam_b*u + 1)) from sums[j] = sum_b w_b * lam_b^j,
    j < max(prec - 1, 1): out[n] = sum_i c_i * binom(-i, n-i) * sums[n-i],
    one dot per coefficient, with c_i scaled once per binomial value."""
    ctx = f.ctx
    p = ctx.field.p
    dot = ctx.ring.dot
    scaled = [(i, [c.scale_const(b) for b in range(p)])
              for i, c in enumerate(f.coeffs) if c]
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
    return UExpansion(ctx, out, f.prec, None, var or f.var)


def shift_by_value(f, lam, var=None):
    """Substitute u -> u/(lam*u + 1): shift_by_sums with the powers of lam."""
    return shift_by_sums(f, f.ctx.powers(lam, f.prec - 1), var)


def moebius_of_series(X, lam):
    """The fractional-linear value X/(lam*X + 1) for a series X of positive
    order — this is u(w + beta/n) when X is the series of u(w).  Summed as
    sum_j lam^j * Y_j with Y_j = X*(-X)^j, so each coefficient is one dot.
    The Y_j with (j+1)*ord X < prec are kept on X as coefficient tuples and
    the powers of lam come from ctx.powers; a zero X gives zero.  The value
    records the Y_j and lam in its _origin slot (no series), from which
    poly_eval_series reads G(value)."""
    order = X.order()
    if not order:
        raise Unsupported("Moebius value of a series of order %d" % order)
    ys = X._moebius
    if ys is None:
        Y, minus, ys = X, -X, [X.coeffs]
        while (len(ys) + 1) * order < X.prec:
            Y = Y * minus
            ys.append(Y.coeffs)
        ys = X._moebius = tuple(ys)
    ctx = X.ctx
    pows = ctx.powers(lam, len(ys))
    dot = ctx.ring.dot
    out = UExpansion(ctx, [dot([(pows[j], y[n]) for j, y in enumerate(ys)
                                if y[n]]) for n in range(X.prec)],
                     X.prec, None, X.var)
    out._origin = (ys, lam)
    return out


def rescale_arg(f, a, meta=None):
    """f(az): substitute u -> u_of_az(a)."""
    if a.is_one():
        return f if meta is None else f.with_meta(meta)
    U = u_of_az(f.ctx, a, f.prec, var=f.var)
    out = poly_eval_series(list(f.coeffs), U)
    return out if meta is None else out.with_meta(meta)


def descend(g, qpol, meta=None):
    """Read a series g in v = u(z/q) back in u: solve sum_i c_i * U(v)^i = g
    for the c_i, with U = u_of_az(q) written in v.

    U has order |q| and leading coefficient 1/lc(q), a unit,
    so the system is triangular.  A nonzero residual means g is not an
    A-periodic u-series and raises NotDescendable.
    """
    ctx = g.ctx
    size = ctx.field.order ** qpol.degree
    Nu = g.prec // size
    if Nu < 1:
        raise NotDescendable("v-precision %d below the order %d" % (g.prec, size))
    U = u_of_az(ctx, qpol, g.prec, var=g.var)
    residual = list(g.coeffs)
    out = []
    power = UExpansion.const(ctx, ctx.ring.one, g.prec, var=g.var)
    lead = ctx.lift_const(qpol.leading())
    for i in range(Nu):
        ci = residual[i * size]
        if i:
            # divide by the leading coefficient lc(q)^(-i) of U^i
            ci = ci * (lead ** i)
        out.append(ci)
        if ci:
            for n, c in enumerate(power.coeffs):
                if c:
                    residual[n] = residual[n] - ci * c
        if i + 1 < Nu:
            power = power * U
    limit = Nu * size
    for n in range(limit):
        if residual[n]:
            raise NotDescendable("residual coefficient at v^%d" % n)
    return UExpansion(ctx, out, Nu, meta, "u")


class AExpansion:
    """Sum over monic a of c_a * u(az)^i (power type) or c_a * G_k(u(az))
    (goss type), stored as an explicit coefficient map up to a degree bound."""

    __slots__ = ("kind", "index", "weight", "type_", "neben", "coeffs",
                 "bound", "ctx")

    def __init__(self, ctx, kind, index, weight, type_, coeffs, bound,
                 neben=None):
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
        self.bound = bound

    @classmethod
    def from_rule(cls, ctx, kind, index, weight, type_, rule, bound,
                  neben=None):
        coeffs = {}
        for a in monics_up_to_degree(ctx.field, bound):
            coeffs[a.c] = rule(a)
        return cls(ctx, kind, index, weight, type_, coeffs, bound, neben)

    def coefficient(self, a):
        return self.coeffs.get(a.c, self.ctx.ring.zero)

    def meta(self):
        return ModularMeta(self.weight, self.type_, neben=self.neben)

    def map_coeffs(self, fn):
        return AExpansion(self.ctx, self.kind, self.index, self.weight,
                          self.type_, {k: fn(Pol(self.ctx.field, k), v)
                                       for k, v in self.coeffs.items()},
                          self.bound, self.neben)

    def scaled_by(self, value):
        return self.map_coeffs(lambda a, c: c * value)

    def render(self, N):
        """Truncated u-expansion; the omitted degrees must start beyond N."""
        q = self.ctx.field.order
        min_exp = self.index if self.kind == "power" else 1
        if self.bound < bound_for_precision(self.ctx.field, N, min_exp):
            raise InsufficientDegreeBound(
                "degree bound %d cannot reach precision %d" % (self.bound, N))
        ctx = self.ctx
        out = UExpansion.zero(ctx, N)
        gk = goss_coeffs_in(ctx, self.index) if self.kind == "goss" else None
        for a in monics_up_to_degree(ctx.field, self.bound):
            c = self.coeffs.get(a.c)
            if not c:
                continue
            if self.index * q ** a.degree >= N and self.kind == "power":
                continue
            if q ** a.degree >= N:
                continue
            U = u_of_az(ctx, a, N)
            if self.kind == "power":
                term = U ** self.index
            else:
                term = poly_eval_series(gk, U)
            out = out + term.scale(c)
        return out.with_meta(self.meta())


def eisenstein_components(ctx, k, level, N):
    """The series E_a = sum_{c in A} G_k(u(cz + a/level)) to precision N,
    as {a.c: E_a} over the monic units a mod level; the c = 0 term is the
    constant G_k(1/lambda_a), and no c with q^deg c >= N reaches u^N.  The
    other units follow from E_{xi a} = xi^(-k) E_a (see fold_units).

    Writing c = xi*c' with c' monic and xi in F_q^*, u(cz) = u(c'z)/xi,
    and summing over xi multiplies u(c'z)^n by sum_xi xi^(-n), which is
    -1 when (q-1) | n and 0 otherwise.  So with the power sums
    P_m = sum_{c' monic} u(c'z)^(m(q-1)) and s = G_k(u/(lambda_a u + 1)),
    E_a = G_k(1/lambda_a) - sum_{m >= 1} s_{m(q-1)} P_m, with 1/lambda_a
    from the Carlitz relation (TorsionContext.torsion_inverse).
    """
    q = ctx.field.order
    step = q - 1
    P = [UExpansion.zero(ctx, N) for _ in range((N - 1) // step)]
    for c in monics_up_to_degree(ctx.field, bound_for_precision(ctx.field, N)):
        count = (N - 1) // (step * q ** c.degree)  # powers of order < N
        if not count:
            continue
        V = W = u_of_az(ctx, c, N) ** step
        for m in range(count):
            if m:
                W = W * V
            P[m] = P[m] + W
    gk = goss_coeffs_in(ctx, k)
    G = UExpansion(ctx, gk, N)
    inverse = ctx.torsion_inverse(level)
    out = {}
    for a in ctx.units(level):
        if not a.is_monic():
            continue
        lam = ctx.exp_at(a, level)
        s = shift_by_value(G, lam).coeffs
        E = UExpansion.const(
            ctx, poly_eval_scalar(gk, inverse(lam), ctx.ring), N)
        for m, Pm in enumerate(P, 1):
            if s[m * step]:
                E = E - Pm.scale(s[m * step])
        out[a.c] = E
    return out


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
        q = ctx.field.order
        if (chi.sign + k) % (q - 1) != 0:
            raise SignMismatch("need s_chi = -k mod q-1 (got s=%d, k=%d)"
                               % (chi.sign, k))
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
        """sum_a comp(a) * G_k(1/lambda_a), the u^0 coefficient."""
        return self.render(1).coeff(0)

    def render(self, N):
        """Truncated u-expansion sum_a comp(a) * E_a over the units a,
        computed as sum_{a monic} w(a) * E_a with the components folded
        onto the monic units by fold_units."""
        ctx = self.ctx
        out = UExpansion.zero(ctx, N)
        comps = eisenstein_components(ctx, self.k, self.level, N)
        w = fold_units(ctx, self.k, self.level, self.components)
        for key, E in comps.items():
            out = out + E.scale(w[key])
        return out.with_meta(self.meta())
