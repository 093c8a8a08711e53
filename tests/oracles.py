"""Independent cross-checks of the nerve enumerations, the flag model and
the closure of outside input.

Each builds what the package builds another way, straight from the
definition, so the two can be compared: exponentially slower, and used
only by the tests.
"""

from functools import reduce
from itertools import combinations, product
from operator import or_

from nervecheck.bits import bit_list, min_bit, subsets_of
from nervecheck.category import CatFunctor, poset_functors
from nervecheck.funcspec import FunctorSpec, pair_mask
from nervecheck.homotopy import Complex
from nervecheck.mapping import _edge_paths
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


def _bottoms(k, s, t):
    """Each vertex M0 of the model between S and T, with the sorted chains
    M that may top a flag over it: the unions of one K-chain per segment,
    taken over the whole product of the segments at once."""
    p = k.ambient
    for bottom, _ in _edge_paths(k, s, t):
        tup = p.chain_tuple(bottom)
        per_segment = [k.segments[a, b] for a, b in zip(tup, tup[1:])]
        yield bottom, sorted({reduce(or_, c, bottom) for c in product(*per_segment)})


def _strict_supersets(admissible):
    """Each mask of the sorted family with its strict supersets there."""
    # a strict superset is the larger int, so only later masks can be one
    return {m: [b for b in admissible[i + 1:] if m & ~b == 0]
            for i, m in enumerate(admissible)}


def _flags_above(bottom, admissible, max_dim):
    """Strict inclusion flags in the sorted admissible family starting at
    bottom, one level (flag length) at a time."""
    sups = _strict_supersets(admissible)
    level = [(bottom,)]
    while level:
        yield level
        if max_dim is not None and len(level[0]) - 1 >= max_dim:
            break
        level = [f + (b,) for f in level for b in sups[f[-1]]]


def flag_model_oracle(k, s, t, max_dim=None):
    """flag_model's simplices as they were listed before it built its
    1-skeleton: each bottom's strict supersets found by scanning its
    admissible family, with no clique check; kept as its oracle."""
    simplices = {}
    for bottom, admissible in _bottoms(k, s, t):
        for d, level in enumerate(_flags_above(bottom, admissible, max_dim)):
            simplices.setdefault(d, []).extend(level)
    return simplices


def generate_oracle(simplices):
    """homotopy.generate, less its size bound, as it was before it closed
    its input one level at a time: labels interned one vertex at a time,
    then close_oracle; kept as its oracle."""
    labels = {}
    family = set()
    for s in simplices:
        t = tuple(sorted(labels.setdefault(v, len(labels)) for v in s))
        if len(set(t)) != len(t):
            raise ValueError("repeated vertex in simplex")
        if t:
            family.add(t)
    return close_oracle(family)


def close_oracle(family):
    """The complex of a family of increasing tuples and all their nonempty
    faces, closed by a stack: each new face is pushed and its own
    codimension-1 faces are added in turn."""
    family = set(family)
    stack = list(family)
    while stack:
        s = stack.pop()
        if len(s) > 1:
            for f in combinations(s, len(s) - 1):
                if f not in family:
                    family.add(f)
                    stack.append(f)
    return Complex(family)
