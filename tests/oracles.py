"""Independent cross-checks of the nerve enumerations.

Each builds what the package builds another way, straight from the
definition, so the two can be compared: exponentially slower, and used
only by the tests.
"""

from nervecheck.bits import bit_list, min_bit, subsets_of
from nervecheck.category import CatFunctor, poset_functors
from nervecheck.funcspec import FunctorSpec, pair_mask
from nervecheck.nerves import Rel2Backend, pair_order, square_holds
from nervecheck.simplicial import CategoryNerveBackend


def relative2_simplices_literal(spec: FunctorSpec, s, k: int) -> list:
    """Definition-shaped enumeration over one base simplex.

    Assigns a functor D^I -> value for every subset independently and
    keeps the families passing every transport square at every pair.
    Exponentially slower than fill(); used to certify it.
    """
    back = Rel2Backend(spec)
    imasks = sorted(range(1, 1 << (k + 1)), key=lambda m: (m.bit_count(), m))
    per_i = {imask: poset_functors(back.dpos(imask), back.value_at(s, min_bit(imask)))
             for imask in imasks}
    out = []

    def place(t: int, chosen: dict) -> None:
        if t == len(imasks):
            x = tuple(chosen[1 << j][0][1 << j] for j in range(k + 1))
            f = tuple(chosen[pair_mask(a, b)][1]
                      [(1 << a, pair_mask(a, b))] for a, b in pair_order(k))
            out.append((s, x, f))
            return
        imask = imasks[t]
        for cand in per_i[imask]:
            ok = all(square_holds(back, s, imask, jmask, cand, chosen[jmask])
                     for jmask in subsets_of(imask)
                     if jmask not in (0, imask))
            if ok:
                chosen[imask] = cand
                place(t + 1, chosen)
                del chosen[imask]

    place(0, {})
    return sorted(out, key=lambda z: (repr(z[1]), repr(z[2])))


def transport_chain(func: CatFunctor, chain):
    objs, mors = chain
    return (tuple(func.obj[y] for y in objs), tuple(func.on_mor(m) for m in mors))


def chi_squares_hold(spec: FunctorSpec, z) -> bool:
    """Literal restriction squares for a simplex-family nerve simplex."""
    s, thetas = z
    k = len(s[0]) - 1
    base = CategoryNerveBackend(spec.base)
    for imask in range(1, 1 << (k + 1)):
        ps = bit_list(imask)
        nb = spec.values[s[0][ps[0]]]
        for jmask in subsets_of(imask):
            if jmask == 0:
                continue
            qs = bit_list(jmask)
            beta = tuple(ps.index(q) for q in qs)
            sub = CategoryNerveBackend(nb).alpha_star(thetas[imask - 1], beta)
            trans = spec.functor(base.cell(s, ps[0], qs[0]))
            if sub != transport_chain(trans, thetas[jmask - 1]):
                return False
    return True
