"""Substitutions the library runs only through their fused routes: a torsion
shift by one residue, and the ascent to the sub-parameter v = u(z/q).  The
oracles that the power-sum shifts of operators.py and series.descend are
tested against."""

from drinfeld.series import poly_eval_series, shift_by_value, u_of_az


def shift_by_torsion(f, beta, ctx):
    """f(z + beta/n) for the context modulus n: shift by exp_value(beta)."""
    if f.ctx is not ctx:
        raise ValueError("expansion does not live in the given torsion ring")
    if not beta % ctx.modulus:
        return f
    return shift_by_value(f, ctx.exp_value(beta))


def to_subparameter(f, qpol, Nv):
    """Express f(z) in v = u(z/q): substitute u -> u_of_az(q) read in v,
    the inverse of series.descend.

    f must carry enough u-precision: coefficients c_i with
    i*|q| >= Nv cannot affect the result.
    """
    U = u_of_az(f.ctx, qpol, Nv, var="v")
    size = f.ctx.field.order ** qpol.degree
    needed = (Nv + size - 1) // size
    if f.prec < needed:
        raise ValueError("need u-precision %d for v-precision %d" % (needed, Nv))
    return poly_eval_series(list(f.coeffs[:needed]), U)
