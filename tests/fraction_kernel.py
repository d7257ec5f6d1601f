"""The vertex-product kernel on Fractions, kept as a test-local reference.

This is the kernel as first written: every coefficient is a
``fractions.Fraction`` and products come back as {k: {FockMonomial:
Fraction}}.  The library's kernel holds integer numerators over one
denominator per host instead; the tests compare the two on every monomial
pair of small hosts.  Nothing is memoized here except the creation series
of one call.
"""

from fractions import Fraction
from math import comb, factorial

from voaforms.voa import FockMonomial


def _remove_one(modes, pair):
    idx = modes.index(pair)
    return modes[:idx] + modes[idx + 1:]


def eminus_series(V, alpha):
    """Creation exponential by output degree: [degree] -> {modes: coeff}."""
    nmax = V.cutoff
    series = [dict() for _ in range(nmax + 1)]
    series[0][()] = Fraction(1)
    rank = V.lattice.rank
    for n in range(1, nmax + 1):
        jmax = nmax // n
        pows = [{(): Fraction(1)}]
        for _ in range(jmax):
            prev = pows[-1]
            cur = {}
            for ms, c in prev.items():
                for i in range(rank):
                    ai = alpha[i]
                    if not ai:
                        continue
                    key = tuple(sorted(ms + ((n, i),)))
                    cur[key] = cur.get(key, Fraction(0)) + c * ai
            pows.append(cur)
        nxt = [dict() for _ in range(nmax + 1)]
        for d in range(nmax + 1):
            if not series[d]:
                continue
            for j in range(0, (nmax - d) // n + 1):
                if not pows[j]:
                    continue
                fac = Fraction(1, n ** j * factorial(j))
                for ms, c in series[d].items():
                    for ms2, c2 in pows[j].items():
                        key = tuple(sorted(ms + ms2))
                        tgt = nxt[d + n * j]
                        tgt[key] = tgt.get(key, Fraction(0)) + c * c2 * fac
        series = nxt
    return [{k: v for k, v in layer.items() if v} for layer in series]


def eplus_expand(V, alpha, modes):
    """Annihilation exponential applied to a multiset: [(zpow, modes, c)]."""
    avals = [V.lattice.inner_basis(alpha, j) for j in range(V.lattice.rank)]
    out = {(0, modes): Fraction(1)}
    layer = dict(out)
    j = 0
    while layer:
        j += 1
        nxt = {}
        for (zp, ms), c in layer.items():
            seen = set()
            for pair in ms:
                if pair in seen:
                    continue
                seen.add(pair)
                m_, i_ = pair
                a = avals[i_]
                if not a:
                    continue
                mult = ms.count(pair)
                key = (zp - m_, _remove_one(ms, pair))
                nxt[key] = nxt.get(key, Fraction(0)) - c * a * mult
        layer = {k: v / j for k, v in nxt.items() if v}
        for k, v in layer.items():
            out[k] = out.get(k, Fraction(0)) + v
    return [(zp, ms, c) for (zp, ms), c in out.items() if c]


def pair_products(V, ma, mb):
    """All products ma_k mb landing within the cutoff: {k: {mono: coeff}}."""
    lat = V.lattice
    gram = lat.gram
    alpha, beta = ma.tail, mb.tail
    tpair = lat.inner(alpha, beta)
    sign = V.epsilon(alpha, beta)
    tau = tuple(a + b for a, b in zip(alpha, beta))
    out = {}
    qtau2 = lat.norm(tau)
    if qtau2 // 2 <= V.cutoff:
        budget = V.cutoff - qtau2 // 2
        stage = [(zp, ms, (), c)
                 for (zp, ms, c) in eplus_expand(V, alpha, mb.modes)]
        for n_, i_ in ma.modes:
            sgn = -1 if (n_ - 1) % 2 else 1
            z0 = lat.inner_basis(beta, i_)
            nxt = []
            for zp, ms, created, c in stage:
                if z0:
                    nxt.append((zp - n_, ms, created, c * sgn * z0))
                seen = set()
                for pair in ms:
                    if pair in seen:
                        continue
                    seen.add(pair)
                    m2, j2 = pair
                    gij = gram[i_][j2]
                    if not gij:
                        continue
                    coeff = sgn * comb(m2 + n_ - 1, n_ - 1) * m2 * gij \
                        * ms.count(pair)
                    nxt.append((zp - m2 - n_, _remove_one(ms, pair),
                                created, c * coeff))
                room = budget - sum(p for p, _ in created)
                for p in range(n_, room + 1):
                    cf = comb(p - 1, n_ - 1)
                    nxt.append((zp + p - n_, ms, created + ((p, i_),),
                                c * cf))
            stage = nxt
        eser = eminus_series(V, alpha)
        for zp, ms, created, c in stage:
            mdeg = sum(n for n, _ in ms) + sum(p for p, _ in created)
            if mdeg > budget:
                continue
            head = ms + created
            for edeg in range(0, budget - mdeg + 1):
                for emodes, ec in eser[edeg].items():
                    mono = FockMonomial(tuple(sorted(head + emodes)), tau)
                    k = -(tpair + zp + edeg) - 1
                    bucket = out.setdefault(k, {})
                    val = bucket.get(mono, Fraction(0)) + sign * c * ec
                    if val:
                        bucket[mono] = val
                    elif mono in bucket:
                        del bucket[mono]
    return {k: b for k, b in out.items() if b}
