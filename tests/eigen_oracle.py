"""The A-expansion eigen check by whole forms: T_q by the gcd test, the
whole form scaled by the eigenvalue, and the first mismatch over the
smaller degree bound, every coefficient formed and compared.  The oracles
that operators.hecke_a (a/q looked up, not divided) and
forms.verify_eigensystem are tested against.  The latter forms no T_q F:
at q not dividing a it decides c_a q^g = lambda c_a by d = q^g - lambda,
with no product or read when d = 0, and it compares two products only at
a = q b, so (passed, witness) must agree with eigen_check byte for byte.
"""

from drinfeld.algebra import Pol, monics_up_to_degree
from drinfeld.operators import neben_eval
from drinfeld.series import AExpansion


def scaled_by(F, value):
    """value * F, every coefficient up to the bound."""
    coeffs = {a.c: F.coefficient(a) * value
              for a in monics_up_to_degree(F.ctx.field, F.bound)}
    return AExpansion(F.ctx, F.kind, F.index, F.weight, F.type_, coeffs,
                      F.bound, F.neben)


def hecke_a_gcd(F, qpol):
    """T_q on an A-expansion: c'_a = q^g c_a [gcd(a,q)=1] +
    q^k psi(q) c_{a/q} [q | a], with a division only when gcd(a, q) != 1."""
    ctx = F.ctx
    qg = ctx.lift_poly(qpol ** F.index)
    qk = ctx.lift_poly(qpol ** F.weight)
    psi_q = neben_eval(F.neben, qpol, ctx)
    if psi_q != 1:
        qk = qk.scale_const(psi_q)
    newbound = F.bound - qpol.degree
    if newbound < 0:
        raise ValueError("degree bound too small for this Hecke prime")
    one = Pol.one(ctx.field)
    coeffs = {}
    for a in monics_up_to_degree(ctx.field, newbound):
        acc = ctx.ring.zero
        if a.gcd(qpol) == one:
            c = F.coefficient(a)
            if c:
                acc = acc + c * qg
        else:
            quot, rem = divmod(a, qpol)
            if not rem:
                c = F.coefficient(quot)
                if c:
                    acc = acc + c * qk
        coeffs[a.c] = acc
    return AExpansion(ctx, F.kind, F.index, F.weight, F.type_, coeffs,
                      newbound, F.neben)


def first_coeff_mismatch(ctx, F, G):
    for a in monics_up_to_degree(ctx.field, min(F.bound, G.bound)):
        if F.coefficient(a) != G.coefficient(a):
            return "a = %s" % a.format()
    return None


def eigen_check(form, qlist, expected):
    """(passed, witness) of the whole-form check of T_q form =
    expected(q) * form over qlist."""
    for qpol in qlist:
        got = hecke_a_gcd(form, qpol)
        bad = first_coeff_mismatch(form.ctx, got,
                                   scaled_by(form, expected(qpol)))
        if bad is not None:
            return False, "q=%s at %s" % (qpol.format(), bad)
    return True, None
