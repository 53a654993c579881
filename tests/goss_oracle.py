"""Goss polynomials from constructions independent of
carlitz.goss_recursion: those of the Carlitz lattice from the exponential
generating identity (an oracle for goss_polys), and those of ker C_q by
the loop operators.hecke_u once ran inline (an oracle for hecke_u's H_n).
Also the Carlitz coefficients [a]_i by deg a + 1 Horner steps from zero,
with no memo (an oracle for carlitz_coeffs' prefix route)."""

from drinfeld.algebra import RF, Pol
from drinfeld.carlitz import carlitz_coeffs, carlitz_factorials


def horner_carlitz_coeffs(a):
    """[a]_0..[a]_{deg a}: from C_0 = 0, one step C_(theta*b + c) =
    theta*C_b + C_b^q + c per coefficient of a, high first, the top
    coefficient trimmed while zero."""
    field = a.field
    theta = Pol.x(field)
    cur = [Pol.zero(field)]
    for code in reversed(a.c) if a.c else [0]:
        nxt = [theta * cur[0] + Pol.const(field, code)]
        for i in range(1, len(cur)):
            nxt.append(theta * cur[i] + cur[i - 1].frob_power(field.n))
        nxt.append(cur[-1].frob_power(field.n))
        while len(nxt) > 1 and not nxt[-1]:
            nxt.pop()
        cur = nxt
    return cur


def kernel_goss_loop(qpol, N, width):
    """H_0..H_N, H_n(X) = G_{n, ker C_q}(qX), each as a list of exactly
    width Pol coefficients (low degree first, cut or padded with zeros):
    H_0 = 0, H_1 = qX and H_n = X * sum_{i>=0} [q]_i H_{n-q^i}, summed
    coefficient by coefficient over the steps with q^i < n."""
    zero = Pol.zero(qpol.field)
    steps = [(qpol.field.order ** i, c)
             for i, c in enumerate(carlitz_coeffs(qpol)) if c]
    H = [[zero] * width, ([zero, qpol] + [zero] * width)[:width]]
    for n in range(2, N + 1):
        terms = [(c, H[n - s]) for s, c in steps if s < n]
        H.append([zero] + [sum((c * h[m] for c, h in terms if h[m]), zero)
                           for m in range(width - 1)])
    return H


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
