"""Subcomplexes of the nerve of D^n carved out by horn faces.

A nonempty J inside [0, n] is i-admissible when the face it spans lies
in the i-th horn: J differs from the full interval and from the full
interval minus i.  The i-superior sets are the admissible ones that are
maximal among admissibles sharing their minimum.  Each J contributes
the full subposet A(J) of D^n swept out by the pullback pairing, and
the horn subcomplex is the union of the nerves of these subposets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bits import interval_mask, mask_of, min_bit, nonempty_subsets_of
from .oriental import DPoset, build_d, rho_image, standard_interval
from .poset import ChainSubcomplex, nerve_chains


def is_admissible(j_mask: int, n: int, i: int) -> bool:
    full = standard_interval(n)
    return j_mask != 0 and j_mask != full and j_mask != full & ~(1 << i)


@dataclass
class AdmissibleFamily:
    n: int
    i: int
    admissible: list[int] = field(default_factory=list)
    superior: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not 0 < self.i < self.n:
            raise ValueError("need an inner horn index")


def admissible_and_superior(n: int, i: int) -> AdmissibleFamily:
    """Enumerate i-admissible subsets and the maximal ones per minimum."""
    fam = AdmissibleFamily(n, i)
    full = standard_interval(n)
    adm = [j for j in nonempty_subsets_of(full) if is_admissible(j, n, i)]
    adm.sort()
    fam.admissible = adm
    by_min: dict[int, list[int]] = {}
    for j in adm:
        by_min.setdefault(min_bit(j), []).append(j)
    sup = []
    for group in by_min.values():
        for j in group:
            if not any(j != k and j | k == k for k in group):
                sup.append(j)
    fam.superior = sorted(sup)
    return fam


def superior_closed_form(n: int, i: int) -> list[int]:
    """Complements of single points (other than i) plus upper tails."""
    full = standard_interval(n)
    out = {full & ~(1 << j) for j in range(n + 1) if j != i}
    out |= {interval_mask(k, n) for k in range(1, n + 1)}
    return sorted(out)


def a_elements(dposet: DPoset, j_mask: int) -> list[int]:
    """Element set of A(J) inside the given ambient D-poset."""
    if j_mask & ~dposet.ground:
        raise ValueError("face not inside the ground set")
    return rho_image(dposet.ground, j_mask)


def _union_over_faces(dposet: DPoset, faces: list[int]) -> ChainSubcomplex:
    member_masks = [mask_of(dposet.poset.index[e] for e in a_elements(dposet, j))
                    for j in faces]
    chains: set[int] = set()
    for c in nerve_chains(dposet.poset):
        for mm in member_masks:
            if c & ~mm == 0:
                chains.add(c)
                break
    return ChainSubcomplex(dposet.poset, chains, validate=False)


def l_complex(n: int, i: int, dposet: DPoset | None = None) -> ChainSubcomplex:
    """Horn subcomplex of the nerve of D^n for the inner horn at i.

    It is the union over the superior faces, which equals the union
    over all admissible faces.
    """
    dposet = dposet or build_d(standard_interval(n))
    return _union_over_faces(dposet, admissible_and_superior(n, i).superior)


def phi_on_objects(n: int, i: int, j: int) -> tuple[ChainSubcomplex, ChainSubcomplex]:
    """Pair (horn-restricted complex, full nerve) over the ground set [j, n].

    The first complex is the union of pullback images over i-admissible
    faces contained in [j, n]; the second is the entire nerve of the
    D-poset on [j, n].  For j > 0 the two coincide.
    """
    if not 0 < i < n or not 0 <= j <= n:
        raise ValueError("parameters out of range")
    ground = interval_mask(j, n)
    dp = build_d(ground)
    faces = sorted(f for f in nonempty_subsets_of(ground) if is_admissible(f, n, i))
    restricted = _union_over_faces(dp, faces)
    full = ChainSubcomplex(dp.poset, nerve_chains(dp.poset), validate=False)
    return restricted, full
