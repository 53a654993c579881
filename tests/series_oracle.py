"""Substitutions and sums the library runs only through their fused,
closed-form or memoised routes: a torsion shift by one residue, the ascent
to the sub-parameter v = u(z/q), the descent from v back to u, u(az) built
afresh, powers as repeated products, T_q on an A-expansion by one division
per monic, the two routes by which poly_eval_series once evaluated a
polynomial (the Y-chain of a Moebius value and the loop over fresh
powers), and the linear combinations of u-series that series.combination
forms with one dot per coefficient, summed here term by term as
S.scale(c) plus series additions.  The oracles that the power-sum shifts,
the closed-form Hecke beta-sum of operators.py, the per-context u(az)
memo, algebra.power, poly_eval_series, operators.hecke_a, the renders and
the Eisenstein components are tested against, and the rank rows by
character, which the rows of forms.eisenstein_rows span.  The values of a
series (its numerators over its den) as RF coordinates, or residues on a
reduced context, and the twists by the route that scales every value by
its conductor power on its own, in that arithmetic, not by one series
den.  A series in v is a UExpansion whose variable is read as v.
"""

from drinfeld import forms
from drinfeld.algebra import (RF, QuotientRing, lucas_binomial,
                              monics_up_to_degree, polys_below_degree)
from drinfeld.carlitz import carlitz_coeffs
from drinfeld.characters import DirichletCharacter, gauss_thakur, power_sums
from drinfeld.errors import DrinfeldError
from drinfeld.operators import _character_shift_sum, neben_eval
from drinfeld.series import (UExpansion, bound_for_precision, combination,
                             fold_units, goss_coeffs_in, goss_den,
                             poly_eval_series, rescale_arg, shift_by_value,
                             u_of_az)


def direct_u_of_az(ctx, a, N):
    """u(az) as a u-series: u^{q^d} / (sum_i [a]_i u^{q^d - q^i}), built on
    every call, as series.u_of_az did before it kept a memo."""
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
        return UExpansion.zero(ctx, N)
    inv = UExpansion(ctx, den, N - size).inverse()
    out = [zero] * size + list(inv.coeffs)
    return UExpansion(ctx, out, N)


class NotDescendable(DrinfeldError):
    """Raised when a sub-parameter series is not an A-periodic u-series."""


def shift_by_torsion(f, beta, ctx):
    """f(z + beta/n) for the context modulus n: shift by exp_value(beta)."""
    if f.ctx is not ctx:
        raise ValueError("expansion does not live in the given torsion ring")
    if not beta % ctx.modulus:
        return f
    return shift_by_value(f, ctx.exp_value(beta))


def to_subparameter(f, qpol, Nv):
    """Express f(z) in v = u(z/q): substitute u -> u_of_az(q) read in v,
    the inverse of descend.

    f must carry enough u-precision: coefficients c_i with
    i*|q| >= Nv cannot affect the result.
    """
    U = u_of_az(f.ctx, qpol, Nv)
    size = f.ctx.field.order ** qpol.degree
    needed = (Nv + size - 1) // size
    if f.prec < needed:
        raise ValueError("need u-precision %d for v-precision %d" % (needed, Nv))
    return poly_eval_series(list(f.coeffs[:needed]), U)


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
    U = u_of_az(ctx, qpol, g.prec)
    residual = list(g.coeffs)
    out = []
    power = UExpansion.const(ctx, ctx.ring.one, g.prec)
    lead = ctx.big_const(ctx.emb[qpol.leading()])
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
    return UExpansion(ctx, out, Nu, meta)


def repeated_product(x, e, one):
    """x^e as e products, starting from one."""
    out = one
    for _ in range(e):
        out = out * x
    return out


def divmod_hecke_coeffs(F, qpol):
    """The coefficient map of hecke_a(F, qpol), by one divmod per monic a."""
    ctx = F.ctx
    qg = ctx.lift_poly(qpol ** F.index)
    qk = ctx.lift_poly(qpol ** F.weight)
    psi_q = neben_eval(F.neben, qpol, ctx)
    if psi_q != 1:
        qk = qk.scale_const(psi_q)
    coeffs = {}
    for a in monics_up_to_degree(ctx.field, F.bound - qpol.degree):
        quot, rem = divmod(a, qpol)
        c, scale = (F.coefficient(a), qg) if rem else (F.coefficient(quot), qk)
        coeffs[a.c] = c * scale if c else ctx.ring.zero
    return coeffs


def y_chain_poly_eval(coeffs, X, lam):
    """G(X/(lam*X + 1)) for X of positive order by the fused route
    poly_eval_series once took at a Moebius value: the chain
    Y_j = X*(-X)^j with (j+1)*ord X < prec, c = shift_by_value(G, lam), and
    X^s = (-1)^(s-1) Y_{s-1}, so that the coefficient at u^n, n >= 1, is
    one dot over the Y_j; the constant term is g_0."""
    ctx, N = X.ctx, X.prec
    order = X.order()
    Y, minus, ys = X, -X, [X.coeffs]
    while (len(ys) + 1) * order < N:
        Y = Y * minus
        ys.append(Y.coeffs)
    c = shift_by_value(UExpansion(ctx, coeffs, len(ys) + 1), lam).coeffs
    es = [c[s] if s % 2 else -c[s] for s in range(1, len(ys) + 1)]
    return UExpansion(ctx, [coeffs[0]] + [
        ctx.ring.dot([(e, y[n]) for e, y in zip(es, ys) if e and y[n]])
        for n in range(1, N)], N)


def power_loop_poly_eval(coeffs, S):
    """poly_eval_series(coeffs, S) at a series S by the loop it once ran:
    S^i formed afresh, one product at a time while i * ord S < prec, and
    sum_i g_i S^i as one series.combination."""
    ctx, N = S.ctx, S.prec
    terms = [(coeffs[0], UExpansion.const(ctx, ctx.ring.one, N).coeffs)]
    power, order = None, S.order()
    for i in range(1, len(coeffs)):
        if i * order >= N:
            break
        power = S if power is None else power * S
        if coeffs[i]:
            terms.append((coeffs[i], power.coeffs))
    return combination(ctx, terms, N)


def scaled_sum_poly_eval(coeffs, S):
    """poly_eval_series(coeffs, S) at a series S: the powers of S scaled
    and summed one by one."""
    ctx, N = S.ctx, S.prec
    out = UExpansion(ctx, coeffs[:1], N)
    power = None
    for i in range(1, len(coeffs)):
        if i * S.order() >= N:
            break
        power = S if power is None else power * S
        if coeffs[i]:
            out = out + power.scale(coeffs[i])
    return out


def scaled_sum_render(F, N):
    """F.render(N) as sum_a term_a.scale(c_a), with u(az) built afresh and
    u(az)^i as repeated products."""
    ctx = F.ctx
    q = ctx.field.order
    min_exp = F.index if F.kind == "power" else 1
    gk = goss_coeffs_in(ctx, F.index) if F.kind == "goss" else None
    one = UExpansion.const(ctx, ctx.ring.one, N)
    out = UExpansion.zero(ctx, N)
    for a in monics_up_to_degree(ctx.field, F.bound):
        c = min_exp * q ** a.degree < N and F.coefficient(a)
        if c:
            U = direct_u_of_az(ctx, a, N)
            term = (repeated_product(U, F.index, one) if gk is None
                    else scaled_sum_poly_eval(gk, U))
            out = out + term.scale(c)
    return out if gk is None else out.over(goss_den(ctx.field, F.index))


def scaled_sum_components(ctx, k, level, N):
    """eisenstein_components(ctx, k, level, N), (den, numerators), with
    every numerator D*level^k*E_a summed as the constant
    sum_i g_i mu^i level^(k-i), g_i the coefficients of D*G_k and
    mu = level/lambda_a, each term a product of powers, less
    sum_m P_m.scale(level^k s_{m(q-1)})."""
    q = ctx.field.order
    step = q - 1
    one = UExpansion.const(ctx, ctx.ring.one, N)
    P = [UExpansion.zero(ctx, N) for _ in range((N - 1) // step)]
    for c in monics_up_to_degree(ctx.field, bound_for_precision(ctx.field, N)):
        count = (N - 1) // (step * q ** c.degree)
        if count:
            V = repeated_product(direct_u_of_az(ctx, c, N), step, one)
            for m in range(count):
                P[m] = P[m] + repeated_product(V, m + 1, one)
    gk = goss_coeffs_in(ctx, k)
    G = UExpansion(ctx, gk, N)
    cofactor = ctx.torsion_cofactor(level)
    lift, ring = ctx.lift_poly, ctx.ring
    out = {}
    for a in ctx.units(level):
        if a.is_monic():
            lam = ctx.exp_at(a, level)
            s = shift_by_value(G, lam).coeffs
            mu = cofactor(lam)
            E = UExpansion.const(ctx, sum(
                (g * repeated_product(mu, i, ring.one)
                 * lift(level ** (k - i)) for i, g in enumerate(gk) if g),
                ring.zero), N)
            for m, Pm in enumerate(P, 1):
                if s[m * step]:
                    E = E - Pm.scale(s[m * step] * lift(level ** k))
            out[a.c] = E
    return goss_den(ctx.field, k) * level ** k, out


def scaled_sum_twisted_render(T, N):
    """T.render(N) as sum_a E_a.scale(w(a)) over scaled_sum_components."""
    ctx = T.ctx
    den, comps = scaled_sum_components(ctx, T.k, T.level, N)
    w = fold_units(ctx, T.k, T.level, T.components)
    out = UExpansion.zero(ctx, N)
    for key, E in comps.items():
        out = out + E.scale(w[key])
    return out.over(den)


def sign_characters(ctx, k):
    """The characters chi of conductor ctx.modulus with s_chi = -k mod
    q-1, in exponent order, with values in ctx.big."""
    ppol = ctx.modulus
    q = ppol.field.order
    return [DirichletCharacter.from_conductor(ppol, e, big=ctx.big)
            for e in range(q ** ppol.degree - 1) if (e + k) % (q - 1) == 0]


def character_rows(ctx, k, N):
    """The rank rows by character, which forms.eisenstein_rows built
    before it dropped the characters: ETilde_chi and EHat_chi for each chi
    of sign_characters, ETilde summed as E_a.scale(w(a)) with w the
    fold_units of chi^{-1}, and EHat as B_r.scale_const(chi^{-1}(r)) over
    the units r, B_r = sum_{c monic, c = r mod p} G_k(u(cz)); numerators,
    scaled as eisenstein_rows scales them (p^k*D and D, D = goss_den)."""
    ppol = ctx.modulus
    field = ppol.field
    q = field.order
    units = ctx.units(ppol)
    _, comps = scaled_sum_components(ctx, k, ppol, N)
    gk = goss_coeffs_in(ctx, k)
    buckets = {r.c: UExpansion.zero(ctx, N) for r in units}
    for c in monics_up_to_degree(field, bound_for_precision(field, N)):
        r = (c % ppol).c
        if r in buckets and q ** c.degree < N:
            buckets[r] += scaled_sum_poly_eval(gk, direct_u_of_az(ctx, c, N))
    rows = []
    for chi in sign_characters(ctx, k):
        inv = {r.c: chi.inverse().eval(r) for r in units}
        w = fold_units(ctx, k, ppol,
                       {r: ctx.big_const(v) for r, v in inv.items()})
        tilde = hat = UExpansion.zero(ctx, N)
        for akey, E in comps.items():
            tilde = tilde + E.scale(w[akey])
        for r, B in buckets.items():
            hat = hat + B.scale_const(inv[r])
        rows.append(tilde.coeffs)
        rows.append(hat.coeffs)
    return rows


def defining_f_row(ctx, k, N, a):
    """D*F_a, F_a = sum_{c = a mod p, c != 0} G_k(u(cz)), by its
    definition, one D*G_k(u(cz)) per nonzero c, monic or not, with u(cz)
    built afresh: the coefficients u^0..u^(N-1) (D = goss_den)."""
    field = ctx.field
    q = field.order
    gk = goss_coeffs_in(ctx, k)
    out = UExpansion.zero(ctx, N)
    for c in polys_below_degree(field, bound_for_precision(field, N) + 1):
        if c and q ** c.degree < N and c % ctx.modulus == a:
            out = out + scaled_sum_poly_eval(gk, direct_u_of_az(ctx, c, N))
    return out.coeffs


def rows_by_characters(ctx, rows, k):
    """The rows [E_a, F_a, ...] of forms.eisenstein_rows, one pair per
    monic unit a in the order of ctx.units, combined into the character
    rows -sum_a chi^{-1}(a) E_a and sum_a chi^{-1}(a) F_a for each chi of
    sign_characters, as scaled sums."""
    monic = [a for a in ctx.units(ctx.modulus) if a.is_monic()]
    N = len(rows[0])
    out = []
    for chi in sign_characters(ctx, k):
        inv = chi.inverse()
        tilde = hat = UExpansion.zero(ctx, N)
        for a, E, F in zip(monic, rows[0::2], rows[1::2]):
            v = inv.eval(a)
            tilde = tilde - UExpansion(ctx, E).scale_const(v)
            hat = hat + UExpansion(ctx, F).scale_const(v)
        out += [tilde.coeffs, hat.coeffs]
    return out


# -- values, and the twists that scale every value ---------------------------

def values(f, scalar=None):
    """f's values, each times scalar when given: per coefficient, its RF
    coordinates over f's den on an exact context (scalar an RF), or its
    residue on a reduced one (scalar a residue).  Equal exactly when the
    values are equal, whatever the dens."""
    if not isinstance(f.ctx.ring, QuotientRing):
        return [c * scalar if scalar else c for c in f.nums]
    if f.den is not None:
        over = RF.from_pol(f.den).inverse()
        scalar = over if scalar is None else scalar * over
    return [[x * scalar for x in c.rf_coords()] if scalar else c.rf_coords()
            for c in f.nums]


def value_difference(a, b):
    """Coefficient by coefficient a - b, for two lists of values."""
    return [[x - y for x, y in zip(c, d)] if isinstance(c, list) else c - d
            for c, d in zip(a, b)]


def modulus_power(ctx, m, e):
    """m^e for any integer e, as the scalar values takes: an RF over the
    big field on an exact context, a residue on a reduced one."""
    if isinstance(ctx.ring, QuotientRing):
        x = RF.from_pol(m.map_to(ctx.big, ctx.emb) ** abs(e))
        return x if e >= 0 else x.inverse()
    x = ctx.lift_poly(m ** abs(e))
    return x if e >= 0 else x.invert()


def over_den(f):
    """1/den of f as an RF, or None when f is integral."""
    return f.den and RF.from_pol(f.den).inverse()


def numerators(f):
    """f's numerators as an integral series, with f's meta."""
    return UExpansion(f.ctx, f.nums, f.prec, f.meta)


def gauss_sums(chi, ctx, count):
    """[g(chi^{-1}) * s(chi, j) for j < count], each its own product."""
    g = gauss_thakur(chi.inverse(), ctx)
    return [s * g if s else s
            for s in power_sums(ctx, chi.conductor, range(count), chi)]


def scaled_twist_raw(f, chi, ctx):
    """twist_raw's values: the beta-sum of f, each value times n^(2m-k)."""
    sums = power_sums(ctx, chi.conductor, range(f.prec - 1 or 1), chi)
    e = 2 * f.meta.type_ - f.meta.weight
    return values(_character_shift_sum(f, chi, sums),
                  modulus_power(ctx, chi.conductor, e))


def scaled_twist_normalized(f, chi, ctx):
    """twist_normalized's values: the beta-sum on gauss_sums, each value
    over n."""
    sums = gauss_sums(chi, ctx, f.prec - 1 or 1)
    return values(_character_shift_sum(f, chi, sums),
                  modulus_power(ctx, chi.conductor, -1))


def scaled_twist_monomial_closed(i, chi, ctx, N):
    """twist_monomial_closed's values: on gauss_sums, each value over n."""
    q, p = ctx.field.order, ctx.field.p
    sums = gauss_sums(chi, ctx, N - i)
    out = [ctx.ring.zero] * N
    for l in range(chi.sign or q - 1, N - i, q - 1):
        b = lucas_binomial(-i, l, p)
        if b:
            out[i + l] = sums[l].scale_const(b)
    return values(UExpansion(ctx, out, N),
                  modulus_power(ctx, chi.conductor, -1))


def scaled_etilde_difference(ctx, chi, k, N):
    """forms.etilde_difference's values: (R(pz) - R(z)) g(chi^{-1}) for
    ETilde's render R, each value over p."""
    R = forms.twisted_eis(ctx, chi, k).render(N)
    return values((rescale_arg(R, chi.conductor) - R).scale(
        gauss_thakur(chi.inverse(), ctx)),
        modulus_power(ctx, chi.conductor, -1))
