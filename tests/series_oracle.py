"""Substitutions the library runs only through their fused, closed-form
or memoised routes: a torsion shift by one residue, the ascent to the
sub-parameter v = u(z/q), the descent from v back to u, and u(az) built
afresh.  The oracles that the power-sum shifts, the closed-form Hecke
beta-sum of operators.py and the per-context u(az) memo are tested
against.  A series in v is a UExpansion whose variable is read as v.
"""

from drinfeld.carlitz import carlitz_coeffs
from drinfeld.errors import DrinfeldError
from drinfeld.series import (UExpansion, poly_eval_series, shift_by_value,
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
