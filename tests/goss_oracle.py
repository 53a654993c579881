"""Goss polynomials of the Carlitz lattice from the exponential generating
identity.  An oracle for carlitz.goss_polys, which builds them by the
recursion G_k = X*(G_{k-1} + sum_i G_{k-q^i}/D_i)."""

from drinfeld.algebra import RF
from drinfeld.carlitz import carlitz_factorials


def goss_generating(field, N):
    """G_1..G_N via the exponential generating identity:
    G_k(X) = X * sum_j X^j * [y^(k-1)] e(y)^j, e(y) = sum y^(q^i)/D_i.
    A list indexed 1..N of RF coefficient lists, low degree first."""
    q = field.order
    imax = 1
    while q ** (imax + 1) <= N:
        imax += 1
    D = carlitz_factorials(field, imax + 1)
    zero = RF.zero(field)
    one = RF.one(field)
    # e(y) truncated to degree N-1 in y
    e = [zero] * N
    for i in range(imax + 1):
        if q ** i <= N - 1:
            e[q ** i] = RF.from_pol(D[i]).inverse()
    powers = [[one] + [zero] * (N - 1)]  # e^0
    # e^j has lowest term y^j, so j <= k-1 <= N-1 suffices
    for j in range(1, N):
        prev = powers[-1]
        cur = [zero] * N
        for a, ca in enumerate(prev):
            if not ca:
                continue
            for b, cb in enumerate(e):
                if a + b >= N:
                    break
                if cb:
                    cur[a + b] = cur[a + b] + ca * cb
        powers.append(cur)
    out = [None]
    for k in range(1, N + 1):
        coeffs = [zero]
        for j in range(0, k):
            coeffs.append(powers[j][k - 1])
        while len(coeffs) > 1 and not coeffs[-1]:
            coeffs.pop()
        out.append(coeffs)
    return out
