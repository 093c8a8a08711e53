import pytest

from nervecheck.battery import lifting_battery, oriental_two_spec
from nervecheck.bits import min_bit, subsets_of
from nervecheck.category import CatFunctor, FiniteCategory, chain_category
from nervecheck.funcspec import FunctorSpec, pair_mask
from nervecheck.lifting import (NatTrans, _sphere_xf, boundary_functor,
                                collapse_nat, identity_nat, image_simplex,
                                point_spec, reduced_lifting_check, sn_cells)
from nervecheck.nerves import pair_order, relative_nerve_2, transported
from nervecheck.oriental import build_d, d_leq, rho_image
from nervecheck.simplicial import sphere_maps


C1 = chain_category(1)


def oriental2_spec():
    const0 = CatFunctor.constant(C1, C1, 0)
    return FunctorSpec(2, {0: C1, 1: C1, 2: C1},
                       {pair_mask(0, 1): const0,
                        pair_mask(1, 2): CatFunctor.identity(C1),
                        pair_mask(0, 2): CatFunctor.identity(C1)},
                       {(0b101, 0b111): {0: (0, 0), 1: (0, 1)}})


def chain2_spec():
    const0 = CatFunctor.constant(C1, C1, 0)
    ident = CatFunctor.identity(C1)
    return FunctorSpec(chain_category(2), {0: C1, 1: C1, 2: C1},
                       {(0, 1): ident, (1, 2): const0, (0, 2): const0})


def parallel_pair():
    # two non-composing parallel arrows besides the identities
    return FiniteCategory(("a", "b"), ("ia", "ib", "u", "v"),
                          {"ia": "a", "ib": "b", "u": "a", "v": "a"},
                          {"ia": "a", "ib": "b", "u": "b", "v": "b"},
                          {"a": "ia", "b": "ib"},
                          {("ia", "ia"): "ia", ("ib", "ib"): "ib",
                           ("ia", "u"): "u", ("u", "ib"): "u",
                           ("ia", "v"): "v", ("v", "ib"): "v"})


def parallel_spec():
    par = parallel_pair()
    ident = CatFunctor.identity(par)
    return FunctorSpec(chain_category(2), {0: par, 1: par, 2: par},
                       {(0, 1): ident, (1, 2): ident, (0, 2): ident})


def chain3_spec():
    const0 = CatFunctor.constant(C1, C1, 0)
    ident = CatFunctor.identity(C1)
    act = {(0, 1): ident, (1, 2): const0, (2, 3): ident,
           (0, 2): const0, (1, 3): const0, (0, 3): const0}
    return FunctorSpec(chain_category(3), {i: C1 for i in range(4)}, act)


def test_sn_cells_square():
    verts, edges = sn_cells(2)
    assert verts == {0b001, 0b011, 0b101, 0b111}
    assert edges == {(0b001, 0b011), (0b011, 0b111), (0b111, 0b101),
                     (0b001, 0b101)}


def test_sn_cells_cube():
    verts, edges = sn_cells(3)
    dp = build_d(0b1111).poset
    assert verts == set(dp.elements)
    for ia, ib in dp.covers:
        assert (dp.elements[ia], dp.elements[ib]) in edges
    # the full jump from the bottom needs every position, so it is
    # not swept out by any proper face
    assert (0b0001, 0b1111) not in edges


def test_boundary_functor_matches_filler_restriction():
    sp = oriental2_spec()
    table = relative_nerve_2(sp, 2)
    back = table.backend
    verts, edges = sn_cells(2)
    for z in table.cells[2]:
        obj, mor = boundary_functor(back, z, 2)
        th_obj, th_mor = back.theta_of(z, 0b111)
        assert set(obj) == verts
        assert set(mor) == edges
        assert all(th_obj[m] == v for m, v in obj.items())
        assert all(th_mor[k] == v for k, v in mor.items())


def rho_preimage(sub, element):
    """Split an element of rho's image into its (s1, s2) pair: s1 holds
    the bits at or below min(sub), s2 those at or above."""
    sub_lo = min_bit(sub)
    return element & ((1 << (sub_lo + 1)) - 1), element & ~((1 << sub_lo) - 1)


def elementwise_transport(back, zv, imask, jm):
    """Oracle for nerves.transported: J's image under rho in D^I listed by
    rho_image, split back by rho_preimage, and its arrows, reflexive ones
    included, found by a scan of all pairs through d_leq."""
    spec = back.spec
    e = back.value_at(zv[0], min_bit(imask))
    th_obj, th_mor = back.theta_of(zv, jm)
    elems = rho_image(imask, jm)
    pre = {m: rho_preimage(jm, m) for m in elems}
    obj = {m: spec.functor(back.path_cell(zv[0], s1)).obj[th_obj[s2]]
           for m, (s1, s2) in pre.items()}
    mor = {}
    for m in elems:
        for mp in elems:
            if not d_leq(m, mp):
                continue
            (s1, s2), (t1, t2) = pre[m], pre[mp]
            big = back.path_cell(zv[0], s1)
            small = back.path_cell(zv[0], t1)
            mor[(m, mp)] = e.then(spec.functor(big).on_mor(th_mor[(s2, t2)]),
                                  spec.tau(small, big)[th_obj[t2]])
    return obj, mor


def elementwise_boundary_functor(back, zv, n):
    """Oracle for boundary_functor: elementwise_transport of every proper
    face into D^[0..n], merged, with the reflexive pairs left out."""
    full = (1 << (n + 1)) - 1
    obj, mor = {}, {}
    for jm in range(1, full):
        face_obj, face_mor = elementwise_transport(back, zv, full, jm)
        for m, val in face_obj.items():
            assert obj.setdefault(m, val) == val
        for key, arrow in face_mor.items():
            if key[0] != key[1]:
                assert mor.setdefault(key, arrow) == arrow
    return obj, mor


# 19, 49 and 116 simplices of dimension 1-3, with 2, 12 and 50 pairs J < I
SQUARES_THROUGH_DIM_3 = 19 * 2 + 49 * 12 + 116 * 50


def test_transported_matches_elementwise_oracle_on_every_square():
    # every I inside [0..k] and proper nonempty J inside I, so also the
    # squares with I proper that the literal enumeration checks
    table = relative_nerve_2(oriental_two_spec(), 3)
    back = table.backend
    squares = 0
    for k, sims in enumerate(table.simplices):
        for z in sims:
            for imask in range(1, 1 << (k + 1)):
                for jm in subsets_of(imask):
                    if jm in (0, imask):
                        continue
                    got = ({}, {})
                    for part, key, val in transported(back, z[0], imask, jm,
                                                      back.theta_of(z, jm)):
                        assert key not in got[part]
                        got[part][key] = val
                    assert got == elementwise_transport(back, z, imask, jm), (z, imask, jm)
                    squares += 1
    assert squares == SQUARES_THROUGH_DIM_3


SPHERES_WITH_PROBLEMS = {"identity-oriental-two": 49, "collapse-oriental-two": 49,
                         "collapse-two-chain": 32, "collapse-parallel": 100,
                         "collapse-three-chain": 125}


@pytest.mark.parametrize("name, nat, n", lifting_battery(),
                         ids=[name for name, _, _ in lifting_battery()])
def test_boundary_functor_matches_elementwise_oracle(name, nat, n):
    # every sphere that some target simplex lies under, i.e. every
    # lifting problem of the sweep, with the base simplex of that target
    tf = relative_nerve_2(nat.source, n)
    tg = relative_nerve_2(nat.target, n)
    under = {}
    for y in tg.simplices[n]:
        under.setdefault(tg.boundary(y), []).append(y)
    compared = 0
    for sphere in sphere_maps(tf, n):
        ws = under.get(tuple(image_simplex(nat, tg, sphere[t]) for t in range(n + 1)))
        if not ws:
            continue
        x, f = _sphere_xf(sphere, n)
        zv = (ws[0][0], x, tuple(f[pq] for pq in pair_order(n)))
        assert boundary_functor(tf.backend, zv, n) == \
            elementwise_boundary_functor(tf.backend, zv, n)
        compared += 1
    assert compared == SPHERES_WITH_PROBLEMS[name]


@pytest.mark.parametrize("make_nat", [identity_nat, collapse_nat])
def test_oriental_two_level_three(make_nat):
    rep = reduced_lifting_check(make_nat(oriental2_spec()), 3)
    assert rep["bijective"]
    assert rep["problems"] == 116
    assert rep["solution_histogram"] == {1: 116}
    assert rep["original_total"] == rep["reduced_total"] == 116


def test_identity_sweep_counts_the_simplices():
    rep = reduced_lifting_check(identity_nat(oriental2_spec()), 2)
    assert rep["bijective"]
    assert rep["problems"] == 49
    assert rep["solution_histogram"] == {1: 49}
    assert rep["original_total"] == rep["reduced_total"] == 49


def test_collapse_sweep_oriental_base():
    rep = reduced_lifting_check(collapse_nat(oriental2_spec()), 2)
    assert rep["bijective"]
    assert rep["problems"] == 49
    assert rep["solution_histogram"] == {1: 49}


def test_collapse_sweep_chain_base():
    rep = reduced_lifting_check(collapse_nat(chain2_spec()), 2)
    assert rep["bijective"]
    assert rep["problems"] == 32
    assert rep["solution_histogram"] == {1: 32}


def test_collapse_sweep_sees_obstructions():
    rep = reduced_lifting_check(collapse_nat(parallel_spec()), 2)
    assert rep["bijective"]
    assert rep["solution_histogram"] == {0: 40, 1: 60}
    assert rep["original_total"] == rep["reduced_total"] == 60


def test_three_chain_level_three():
    for nat in (collapse_nat(chain3_spec()), identity_nat(chain3_spec())):
        rep = reduced_lifting_check(nat, 3)
        assert rep["bijective"]
        assert rep["problems"] == 125
        assert rep["solution_histogram"] == {1: 125}


def test_image_outside_the_target_nerve_is_an_error(monkeypatch):
    # const0 at 0 breaks naturality along (0, 1), whose transport is the
    # identity, so some images violate the target's transport squares
    sp = chain2_spec()
    const0 = CatFunctor.constant(C1, C1, 0)
    monkeypatch.setattr(NatTrans, "_validate", lambda self: None)
    nat = NatTrans(sp, sp, {0: const0, 1: CatFunctor.identity(C1),
                            2: CatFunctor.identity(C1)})
    monkeypatch.undo()
    with pytest.raises(ValueError,
                       match=r"^the image \(.* is not a simplex of the target nerve$"):
        reduced_lifting_check(nat, 2)


def test_nat_validation_errors():
    sp = chain2_spec()
    fresh = chain_category(1)
    with pytest.raises(ValueError, match="endpoints"):
        NatTrans(sp, sp, {0: CatFunctor.identity(fresh),
                          1: CatFunctor.identity(C1),
                          2: CatFunctor.identity(C1)})
    with pytest.raises(ValueError, match="no component"):
        NatTrans(sp, sp, {0: CatFunctor.identity(C1)})
    const0 = CatFunctor.constant(C1, C1, 0)
    with pytest.raises(ValueError, match="not natural"):
        NatTrans(sp, sp, {0: const0, 1: CatFunctor.identity(C1),
                          2: CatFunctor.identity(C1)})
    with pytest.raises(ValueError, match="bases differ"):
        NatTrans(sp, chain2_spec(), {i: CatFunctor.identity(C1) for i in range(3)})


def test_nat_validation_oriental_branch():
    sp = oriental2_spec()
    const0 = CatFunctor.constant(C1, C1, 0)
    with pytest.raises(ValueError, match="not natural at cell 12"):
        NatTrans(sp, sp, {0: CatFunctor.identity(C1), 1: const0,
                          2: CatFunctor.identity(C1)})
    with pytest.raises(ValueError, match="base kinds"):
        NatTrans(sp, chain2_spec(), {i: CatFunctor.identity(C1) for i in range(3)})


def test_point_spec_validates_both_kinds():
    point_spec(3)
    point_spec(chain_category(2))
    collapse_nat(oriental2_spec())


def test_level_below_two_rejected():
    with pytest.raises(ValueError, match="n = 2"):
        reduced_lifting_check(identity_nat(chain2_spec()), 1)
