"""Scaled nerves, both relative nerves, and the comparisons between them."""

import hashlib
import random
from collections import Counter
from functools import partial

import pytest

from nervecheck import nerves, suites
from nervecheck.battery import (chain3_spec, functor_battery, lifting_battery,
                                oriental_two_spec)
from nervecheck.bits import bit_list, mask_of, max_bit, min_bit, subsets_of
from nervecheck.category import (CatFunctor, FiniteCategory, chain_category,
                                 extend_covers, walking_iso)
from nervecheck.funcspec import FunctorSpec, constant_spec, pair_mask
from nervecheck.groth import grothendieck_classical
from nervecheck.lifting import _sphere_xf
from nervecheck.nerves import (
    OrientalScaledBackend,
    PullbackBackend,
    Rel1Backend,
    Rel2Backend,
    base_change_check,
    chi_groth_comparison,
    chi_squares_hold,
    pair_order,
    pi_star_check,
    pull_spec,
    relative2_simplices_literal,
    relative_nerve_1,
    relative_nerve_2,
    rho_plan,
)
from nervecheck.oriental import d_leq, rho_image
from nervecheck.report import FAIL
from nervecheck.simplicial import (
    CategoryNerveBackend,
    SimplexTable,
    codegeneracy,
    delta,
    horn_fill_check,
    sphere_maps,
)
from test_lifting import elementwise_boundary_functor


# SHA-256 of repr(relative_nerve_2(oriental_two_spec(), 5).simplices)
ORIENTAL_TWO_DIM5_SHA = "5c0153dfb8a9646f1b913ccc30c4434a2f406457f820d91c727b815c65afc8f9"
# the same at dimension 6, computed before theta was memoised per simplex
ORIENTAL_TWO_DIM6_SHA = "56727507afa11d8ce6cea4eb3953feb54e1ef3c62529fef915055e04aec5f302"


def oriental2_spec():
    """Diagram on three vertices whose two triangle cells genuinely differ."""
    c1 = chain_category(1)
    const0 = CatFunctor.constant(c1, c1, 0)
    ident = CatFunctor.identity(c1)
    return FunctorSpec(2, {0: c1, 1: c1, 2: c1},
                       {pair_mask(0, 1): const0, pair_mask(1, 2): ident,
                        pair_mask(0, 2): ident},
                       {(0b101, 0b111): {0: (0, 0), 1: (0, 1)}})


def arrow_base_spec(values=None):
    c1 = chain_category(1)
    vals = values or {0: c1, 1: c1}
    at = vals[0].objects[0]
    return FunctorSpec(c1, vals,
                       {(0, 1): CatFunctor.constant(vals[1], vals[0], at)})


def pi_star(sp, dim):
    """pi_star_check on both family-nerve tables of sp, built through dim."""
    return pi_star_check(relative_nerve_1(sp, dim), relative_nerve_2(sp, dim), dim)


# --- scaled nerves -------------------------------------------------------


def test_scaled_nerve_of_interval_is_a_simplex():
    t = SimplexTable(OrientalScaledBackend(1), 3)
    assert t.counts() == [2, 1, 0, 0]
    assert [len(s) for s in t.simplices] == [2, 3, 4, 5]


def test_scaled_nerve_of_triangle_counts_and_thinness():
    t = SimplexTable(OrientalScaledBackend(2), 3)
    assert t.counts() == [3, 4, 4, 4]
    # the full-vertex triangles: one through the long edge per 1-cell choice
    tris = {s for s in t.cells[2] if s[0] == (0, 1, 2)}
    assert tris == {((0, 1, 2), (0b011, 0b111, 0b110)),
                    ((0, 1, 2), (0b011, 0b101, 0b110))}
    assert set(filter(t.backend.thin, t.cells[2])) == {((0, 1, 2), (0b011, 0b111, 0b110))}
    # nondegenerate triangles with a repeated vertex witness the 2-cell
    assert ((0, 0, 2), (0b001, 0b101, 0b111)) in t.cells[2]
    assert ((0, 2, 2), (0b111, 0b101, 0b100)) in t.cells[2]


def test_scaled_nerve_horn_filling_by_dimension():
    # triangle horns always fill: the union of the two cells is a filler edge
    t = SimplexTable(OrientalScaledBackend(2), 3)
    assert horn_fill_check(t, 2, 1)["all_filled"]
    # 3-horns need an inverse of the noninvertible triangle cell, so some fail
    for i in (1, 2):
        r = horn_fill_check(t, 3, i)
        assert not r["all_filled"]
        assert r["filler_counts"].get(0, 0) > 0
    # over a 1-category every inner horn fills uniquely
    tc = SimplexTable(CategoryNerveBackend(chain_category(2)), 3)
    for n, i in [(2, 1), (3, 1), (3, 2)]:
        r = horn_fill_check(tc, n, i)
        assert r["all_filled"] and set(r["filler_counts"]) == {1}


def test_scaled_nerve_of_category_base_is_plain_nerve():
    t = SimplexTable(CategoryNerveBackend(chain_category(2)), 2)
    assert t.counts() == [3, 3, 1]
    assert sum(map(t.backend.thin, t.cells[2])) == 1


# --- functor-family nerve ------------------------------------------------


def test_point_valued_nerve_matches_scaled_nerve():
    sp = constant_spec(2, FiniteCategory.point())
    x = relative_nerve_2(sp, 3)
    base = SimplexTable(OrientalScaledBackend(2), 3)
    assert x.counts() == base.counts()
    for k in range(4):
        assert [z[0] for z in x.cells[k]] == list(base.cells[k])


def test_family_nerve_counts_over_arrow_base():
    x = relative_nerve_2(arrow_base_spec(), 2)
    assert x.counts() == [4, 4, 1]


def test_family_nerve_over_point_base_is_the_value_nerve():
    # the D-functor on a triple is forced onto the chain (x0, x1, x2, x2),
    # so simplices match value-nerve chains and every 2-simplex degenerates
    pt = FiniteCategory.point()
    sp = FunctorSpec(pt, {"*": chain_category(1)}, {})
    x = relative_nerve_2(sp, 3)
    chi = relative_nerve_1(sp, 3)
    assert x.counts() == [2, 1, 0, 0]
    assert chi.counts() == [2, 1, 0, 0]
    rep = pi_star_check(chi, x, 3)
    assert all(rep["bijective"].values()) and rep["well_defined"]


def test_family_nerve_counts_with_nontrivial_two_cell():
    x = relative_nerve_2(oriental2_spec(), 3)
    assert x.counts() == [6, 13, 17, 20]
    assert [len(s) for s in x.simplices] == [6, 19, 49, 116]
    assert sum(map(x.backend.marked, x.cells[1])) == 8
    assert sum(map(x.backend.thin, x.cells[2])) == 9


def test_derived_enumeration_matches_literal_definition():
    sp = oriental2_spec()
    b = Rel2Backend(sp)
    base = OrientalScaledBackend(2)
    for k in range(3):
        for s in base.simplices(k):
            lit = relative2_simplices_literal(sp, s, k)
            der = sorted(b.fill(s, k), key=lambda z: (repr(z[1]), repr(z[2])))
            assert lit == der


def test_derived_enumeration_matches_literal_in_diamond_dimension():
    # subset posets first branch at four vertices: every base 3-simplex
    sp = oriental2_spec()
    b = Rel2Backend(sp)
    bases = OrientalScaledBackend(2).simplices(3)
    assert len(bases) == 31
    for s in bases:
        lit = relative2_simplices_literal(sp, s, 3)
        der = sorted(b.fill(s, 3), key=lambda z: (repr(z[1]), repr(z[2])))
        assert lit == der


def _valid_by_definition(b: Rel2Backend, z) -> bool:
    """Every theta exists and every square (I, J), J inside I, holds."""
    k = len(z[1]) - 1
    try:
        thetas = {m: b.theta_of(z, m) for m in range(1, 1 << (k + 1))}
        return None not in thetas.values() and all(
            nerves.square_holds(b, z[0], i, j, thetas[i], thetas[j])
            for i in thetas for j in subsets_of(i) if j not in (0, i))
    except KeyError:
        return False


def _theta_by_definition(b: Rel2Backend, z, imask: int):
    """Theta of D^imask built from z's own data, with no memo and no relabelling."""
    s, x, data = z
    f = dict(zip(pair_order(len(x) - 1), data))
    p = b.dpos(imask)
    obj = {sm: b.spec.functor(b.path_cell(s, sm)).obj[x[max_bit(sm)]]
           for sm in p.elements}
    cov = {(p.elements[ia], p.elements[ib]):
           b._cover_value(s, x, f, p.elements[ia], p.elements[ib])
           for ia, ib in p.covers}
    mor = extend_covers(p, b.value_at(s, min_bit(imask)), obj, cov)
    return None if mor is None else (obj, mor)


def _thetas_agree(b: Rel2Backend, z) -> bool:
    return all(b.theta_of(z, m) == _theta_by_definition(b, z, m)
               for m in range(1, 1 << len(z[1])))


def test_theta_equals_the_unmemoised_theta_on_every_candidate():
    b = Rel2Backend(oriental2_spec())
    for k in range(4):
        for s in b.base.simplices(k):
            for z in b.candidates(s, k):
                assert _thetas_agree(b, z), z


def test_theta_equals_the_unmemoised_theta_on_every_boundary_sphere():
    spheres = 0
    for name, nat, level in lifting_battery():
        if level != 2:
            continue
        table = relative_nerve_2(nat.source, 2)
        b = table.backend
        bases = {SimplexTable(b.base, 2).boundary(s): s for s in b.base.simplices(2)}
        for sphere in sphere_maps(table, 2):
            s = bases.get(tuple(sphere[i][0] for i in range(3)))
            if s is None:  # no base simplex, so no lifting problem, fills it
                continue
            x, f = _sphere_xf(sphere, 2)
            zv = (s, x, tuple(f[ab] for ab in pair_order(2)))
            assert _thetas_agree(b, zv), (name, zv)
            spheres += 1
    assert spheres


def _accepts(b: Rel2Backend, z) -> bool:
    try:
        return b.simplex_valid(z)
    except KeyError:
        return False


def test_validation_from_faces_agrees_with_the_definition():
    b = Rel2Backend(oriental2_spec())
    for k in range(4):
        for s in b.base.simplices(k):
            for z in b.candidates(s, k):
                assert b.simplex_valid(z) == _valid_by_definition(b, z)


def test_category_base_candidates_always_valid():
    b = Rel2Backend(arrow_base_spec())
    for k in range(3):
        for s in b.base.simplices(k):
            assert all(b.simplex_valid(z) and _valid_by_definition(b, z)
                       for z in b.fill(s, k))


def test_validation_from_faces_agrees_on_corrupted_families():
    """Random corruptions of object and pair data, as below, at k = 2, 3.

    Also counted: how often theta path independence alone, with no
    squares, gives the definition's verdict.  On this sample it always
    does; that is recorded, not relied on, and the squares stay.
    """
    rng = random.Random(1729)
    b = Rel2Backend(oriental2_spec())
    cases = theta_only = rejected = 0
    for k in (2, 3):
        good = [z for s in b.base.simplices(k) for z in b.fill(s, k)]
        for _ in range(495):
            s, x, f = rng.choice(good)
            x, f = list(x), list(f)
            for _ in range(rng.randint(1, 2)):
                if rng.random() < 0.3:
                    x[rng.randrange(k + 1)] = rng.choice([0, 1])
                else:
                    f[rng.randrange(len(f))] = rng.choice([(0, 0), (0, 1), (1, 1)])
            cand = (s, tuple(x), tuple(f))
            want = _valid_by_definition(b, cand)
            assert _accepts(b, cand) == want
            try:
                paths_ok = all(b.theta_of(cand, m) is not None
                               for m in range(1, 1 << (k + 1)))
            except KeyError:
                paths_ok = False
            cases += 1
            theta_only += paths_ok == want
            rejected += not want
    assert 0 < rejected < cases == 990
    assert theta_only == cases


def test_each_candidate_is_validated_once_per_backend(monkeypatch):
    runs = Counter()
    valid_from_faces = Rel2Backend._valid_from_faces

    def counted(self, z):
        runs[z] += 1
        return valid_from_faces(self, z)

    monkeypatch.setattr(Rel2Backend, "_valid_from_faces", counted)
    x = relative_nerve_2(oriental2_spec(), 3)
    for k in range(4):
        for s in x.backend.base.simplices(k):
            for z in x.backend.candidates(s, k):
                assert x.backend.simplex_valid(z)
    assert set(runs) >= {z for sims in x.simplices for z in sims}
    assert max(runs.values()) == 1


def _count_theta_builds(monkeypatch) -> Counter:
    builds = Counter()
    build = Rel2Backend._build_theta

    def counted(self, z):
        builds[self, z] += 1  # the key keeps self alive, so no id is reused
        return build(self, z)

    monkeypatch.setattr(Rel2Backend, "_build_theta", counted)
    return builds


def test_each_theta_is_built_at_most_twice_per_backend(monkeypatch):
    # once unkept to validate a candidate, once kept when a larger simplex
    # or a lifting problem reads it
    builds = _count_theta_builds(monkeypatch)
    relative_nerve_2(oriental2_spec(), 3)
    assert max(builds.values()) == 2
    builds.clear()
    assert suites.run_suite("reduced-lifting").counts()["PASS"] == 5
    assert max(builds.values()) <= 2 and sum(builds.values()) <= 1200


def _check_oriental_two_nerve(monkeypatch, counts, sha):
    builds = _count_theta_builds(monkeypatch)
    x = relative_nerve_2(oriental_two_spec(), len(counts) - 1)
    assert [len(sims) for sims in x.simplices] == counts
    assert hashlib.sha256(repr(x.simplices).encode()).hexdigest() == sha
    # each simplex's theta once as a candidate, and below the top once more
    assert sum(builds.values()) == sum(counts) + sum(counts[:-1])


@pytest.mark.slow
def test_oriental_two_nerve_at_dim_5_is_pinned(monkeypatch):
    _check_oriental_two_nerve(monkeypatch, [6, 19, 49, 116, 264, 589],
                              ORIENTAL_TWO_DIM5_SHA)


@pytest.mark.slow
def test_oriental_two_nerve_at_dim_6_is_pinned(monkeypatch):
    _check_oriental_two_nerve(monkeypatch, [6, 19, 49, 116, 264, 589, 1299],
                              ORIENTAL_TWO_DIM6_SHA)


def test_squares_reject_a_theta_the_boundary_does_not_force(monkeypatch):
    """Give a valid candidate z the theta of another valid candidate over
    the same base simplex.  The faces of z still hold and the theta still
    exists, so only the squares (whole set, J) decide: z must be accepted
    exactly when that theta takes every value the boundary of z forces."""
    ref = Rel2Backend(oriental_two_spec())
    swaps = rejected = 0
    for k in (1, 2, 3):
        whole = (1 << (k + 1)) - 1
        for s in ref.base.simplices(k):
            valid = ref.fill(s, k)
            for z in valid:
                pins = elementwise_boundary_functor(ref, z, k)
                for other in valid:
                    if other == z:
                        continue
                    th = ref.theta_of(other, whole)
                    b = Rel2Backend(ref.spec)
                    monkeypatch.setattr(b, "_build_theta",
                                        lambda y, z=z, th=th, build=b._build_theta:
                                        th if y == z else build(y))
                    forced = all(th[part][key] == val
                                 for part in (0, 1) for key, val in pins[part].items())
                    assert b.simplex_valid(z) == forced, (z, other)
                    swaps += 1
                    rejected += not forced
    assert (swaps, rejected) == (504, 374)


def test_validator_rejects_corrupted_family():
    sp = oriental2_spec()
    b = Rel2Backend(sp)
    s = ((0, 1, 2), (0b011, 0b101, 0b110))
    good = b.fill(s, 2)
    assert good
    z = good[0]
    seen_reject = False
    for pos in range(3):
        for repl in [(0, 0), (0, 1), (1, 1)]:
            f = list(z[2])
            if f[pos] == repl:
                continue
            f[pos] = repl
            cand = (z[0], z[1], tuple(f))
            try:
                ok = b.simplex_valid(cand)
            except KeyError:
                ok = False
            seen_reject = seen_reject or not ok
    assert seen_reject


def test_family_nerve_horn_filling_by_base_kind():
    # triangle horns fill over any base when values are category nerves
    x = relative_nerve_2(oriental2_spec(), 3)
    assert horn_fill_check(x, 2, 1)["all_filled"]
    # 3-horn failures of the base scaled nerve are inherited upstairs
    assert not horn_fill_check(x, 3, 1)["all_filled"]
    # over a category base the family nerve is a category nerve in disguise
    xc = relative_nerve_2(arrow_base_spec(), 3)
    for n, i in [(2, 1), (3, 1), (3, 2)]:
        r = horn_fill_check(xc, n, i)
        assert r["all_filled"] and set(r["filler_counts"]) == {1}


# --- simplex-family nerve and its comparisons ----------------------------


def test_subset_family_nerve_needs_category_base():
    with pytest.raises(ValueError, match="category base"):
        relative_nerve_1(constant_spec(2, FiniteCategory.point()), 2)


def test_subset_families_satisfy_restriction_squares():
    for sp in [arrow_base_spec(),
               arrow_base_spec({0: walking_iso(), 1: chain_category(1)})]:
        t = relative_nerve_1(sp, 2)
        for k in range(3):
            for z in t.backend.simplices(k):
                assert chi_squares_hold(sp, z)


def test_family_nerve_agrees_with_total_category_nerve():
    for sp in [arrow_base_spec(),
               arrow_base_spec({0: walking_iso(), 1: chain_category(1)})]:
        rep = chi_groth_comparison(relative_nerve_1(sp, 3), 3)
        assert rep["bijective"]
        assert rep["faces_commute"]


def test_projection_comparison_is_an_isomorphism_over_category_base():
    for sp in [arrow_base_spec(),
               arrow_base_spec({0: walking_iso(), 1: chain_category(1)})]:
        rep = pi_star(sp, 2)
        assert rep["well_defined"]
        assert rep["faces_commute"] and rep["degeneracies_commute"]
        assert rep["markings_match"] and rep["projection_commutes"]
        assert all(rep["injective"].values())
        assert all(rep["bijective"].values())


def test_projection_commutes_fails_when_the_base_simplex_moves(monkeypatch):
    # over the walking iso with equal values, swapping a and b is an
    # automorphism of the family nerve: the moved map is still a
    # bijective simplicial map, and only the projection notices
    j, c1 = walking_iso(), chain_category(1)
    ident = CatFunctor.identity(c1)
    sp = FunctorSpec(j, {"a": c1, "b": c1}, {"u": ident, "v": ident})
    swap = {"a": "b", "b": "a", "ida": "idb", "idb": "ida", "u": "v", "v": "u"}
    straight = nerves.pi_star_map

    def moved(z):
        (objs, mors), x, f = straight(z)
        return ((tuple(swap[o] for o in objs), tuple(swap[m] for m in mors)), x, f)

    monkeypatch.setattr(nerves, "pi_star_map", moved)
    rep = pi_star(sp, 2)
    assert rep["well_defined"] and all(rep["bijective"].values())
    assert rep["faces_commute"] and rep["degeneracies_commute"]
    assert not rep["projection_commutes"]


def test_degeneracies_commute_fails_on_mirrored_degeneracies(monkeypatch):
    sp = arrow_base_spec()
    rel1, rel2 = relative_nerve_1(sp, 2), relative_nerve_2(sp, 2)
    b1 = rel1.backend
    straight = b1.alpha_star

    def mirrored(z, alpha):
        k = b1.dim_of(z)
        for j in range(k + 1):
            if alpha == codegeneracy(j, k):
                return straight(z, codegeneracy(k - j, k))
        return straight(z, alpha)

    monkeypatch.setattr(b1, "alpha_star", mirrored)
    rep = pi_star_check(rel1, rel2, 2)
    # faces are read from the tables, built before the patch
    assert rep["faces_commute"] and not rep["degeneracies_commute"]


def alpha_star_oracle(backend: Rel1Backend, z, alpha):
    """Rel1Backend.alpha_star restricting every subset's theta on its own."""
    s, thetas = z
    sp = backend.catnerve.alpha_star(s, alpha)
    kp = len(alpha) - 1
    tp = []
    for imask in range(1, 1 << (kp + 1)):
        ps = bit_list(imask)
        images = [alpha[t] for t in ps]
        m = mask_of(images)
        u = bit_list(m)
        beta = tuple(u.index(im) for im in images)
        tp.append(backend.valnb[s[0][u[0]]].alpha_star(thetas[m - 1], beta))
    return (sp, tuple(tp))


def test_planned_alpha_star_matches_the_per_subset_oracle():
    specs = [(name, sp) for name, sp in functor_battery() if not sp.oriental_base]
    assert len(specs) == 10
    for name, sp in specs:
        b = Rel1Backend(sp)
        for k in range(4):
            maps = [delta(i, k) for i in range(k + 1)] if k else []
            maps += [codegeneracy(j, k) for j in range(k + 1)]
            if k:
                # neither injective nor surjective: some subsets restrict
                # a theta along a non-identity beta
                maps += [(0, 0, k), (0, k, k), (k, k)]
            for z in b.simplices(k):
                for alpha in maps:
                    assert b.alpha_star(z, alpha) == \
                        alpha_star_oracle(b, z, alpha), (name, z, alpha)


def _drop_a_nondegenerate_edge(monkeypatch, cls=Rel1Backend, applies=lambda b: True):
    inner = cls.simplices

    def simplices(self, k):
        out = inner(self, k)
        if k != 1 or not applies(self):
            return out
        points = {self.alpha_star(v, codegeneracy(0, 0)) for v in inner(self, 0)}
        edge = next(z for z in out if z not in points)
        return [z for z in out if z != edge]

    monkeypatch.setattr(cls, "simplices", simplices)


def test_comparisons_still_closure_check_the_family_nerve(monkeypatch):
    name = "arrow-collapse"
    sp = dict(functor_battery())[name]
    _drop_a_nondegenerate_edge(monkeypatch)
    msg = "^face missing below dimension 2$"
    with pytest.raises(ValueError, match=msg):
        chi_groth_comparison(relative_nerve_1(sp, 4), 4)
    with pytest.raises(ValueError, match=msg):
        pi_star(sp, 3)
    check = next(c for c in suites.build_suite("nerve-comparison", {})
                 if c.id == f"{name}/total-category")
    assert check.fn is suites._groth_check
    res = suites._execute(check)
    assert res.verdict == FAIL
    assert res.certificate == {
        "error": "ValueError: face missing below dimension 2"}


def test_base_change_closure_checks_the_pulled_family_nerve(monkeypatch):
    sp = dict(functor_battery())["two-chain-mixed"]
    bf = CatFunctor(chain_category(1), sp.base, {0: 0, 1: 2},
                    {(0, 0): (0, 0), (1, 1): (2, 2), (0, 1): (0, 2)})
    assert base_change_check(bf, sp, 3)["isomorphism"]
    pulled = []

    def recorded_pull_spec(bf, spec):
        pulled.append(pull_spec(bf, spec))
        return pulled[-1]

    monkeypatch.setattr(nerves, "pull_spec", recorded_pull_spec)
    _drop_a_nondegenerate_edge(monkeypatch, Rel2Backend,
                               lambda b: any(b.spec is p for p in pulled))
    with pytest.raises(ValueError, match="^face missing below dimension 2$"):
        base_change_check(bf, sp, 3)
    assert pulled


def test_each_comparison_lists_each_nerve_once_per_dimension(monkeypatch):
    # a nerve is a backend class over a spec: the pullback over itself and
    # the total category over its category.  listed holds every such
    # object, so no id is reused during a run.
    listed, totals = [], []

    def recorded_total_category(spec):
        totals.append(grothendieck_classical(spec))
        return totals[-1]

    monkeypatch.setattr(nerves, "grothendieck_classical", recorded_total_category)
    for cls in (Rel1Backend, Rel2Backend, PullbackBackend, CategoryNerveBackend):
        def simplices(self, k, inner=cls.simplices):
            over = getattr(self, "spec", getattr(self, "cat", self))
            if not isinstance(self, CategoryNerveBackend) or any(over is g for g in totals):
                listed.append((type(self).__name__, over, k))
            return inner(self, k)

        monkeypatch.setattr(cls, "simplices", simplices)
    for suite, nerves_read in (("nerve-comparison", 30), ("base-change", 12)):
        listed.clear()
        report = suites.run_suite(suite)
        assert report.counts()["PASS"] == len(report.checks)
        times = Counter((name, id(over), k) for name, over, k in listed)
        assert max(times.values()) == 1, suite
        assert len({key[:2] for key in times}) == nerves_read, suite


def _checked_backends():
    """(name, backend maker, dim) for every nerve a comparison reads."""
    for name, sp in functor_battery():
        yield name, partial(Rel1Backend, sp), 4
        yield name, partial(Rel2Backend, sp), 3
        yield name, lambda sp=sp: CategoryNerveBackend(grothendieck_classical(sp)), 4
    yield "oriental-two", partial(Rel2Backend, oriental_two_spec()), 3


def test_recorded_faces_equal_alpha_star_on_a_fresh_backend():
    for name, make, dim in _checked_backends():
        fresh = make()
        t = SimplexTable(make(), dim)
        for k, (sims, faces) in enumerate(zip(t.simplices, t.faces)):
            assert list(faces) == (sims if k else []), (name, k)
            for z, fs in faces.items():
                assert fs == tuple(fresh.alpha_star(z, delta(i, k))
                                   for i in range(k + 1)), (name, k, z)


def _swap_d0_d1_in_dimension_2(monkeypatch, cls, applies):
    inner = cls.alpha_star
    swap = {delta(0, 2): delta(1, 2), delta(1, 2): delta(0, 2)}

    def alpha_star(self, s, alpha):
        if applies(self) and self.dim_of(s) == 2:
            alpha = swap.get(alpha, alpha)
        return inner(self, s, alpha)

    monkeypatch.setattr(cls, "alpha_star", alpha_star)


def test_comparisons_catch_a_target_with_swapped_faces(monkeypatch):
    # the target's closure check still passes, so only a comparison that
    # computes the faces of both sides on its own can see the swap
    sp = dict(functor_battery())["arrow-collapse"]
    assert chi_groth_comparison(relative_nerve_1(sp, 3), 3)["faces_commute"]
    assert pi_star(sp, 3)["faces_commute"]
    totals = []

    def recorded_total_category(spec):
        totals.append(grothendieck_classical(spec))
        return totals[-1]

    monkeypatch.setattr(nerves, "grothendieck_classical", recorded_total_category)
    _swap_d0_d1_in_dimension_2(monkeypatch, CategoryNerveBackend,
                               lambda b: any(b.cat is g for g in totals))
    _swap_d0_d1_in_dimension_2(monkeypatch, Rel2Backend, lambda b: True)
    # the tables are built after the patches, so the family nerve's
    # recorded faces are the swapped ones
    rep = chi_groth_comparison(relative_nerve_1(sp, 3), 3)
    assert totals and rep["bijective"] and not rep["faces_commute"]
    rep = pi_star(sp, 3)
    assert rep["well_defined"] and all(rep["bijective"].values())
    assert rep["degeneracies_commute"] and not rep["faces_commute"]
    # base change, swapped on the pullback's family side only: over the
    # point both faces lie over one base simplex, so the pullback stays
    # closed
    monkeypatch.undo()
    pt = dict(functor_battery())["point-two-chain"]
    bf = CatFunctor.constant(chain_category(1), pt.base, "*")
    assert base_change_check(bf, pt, 3)["faces_commute"]
    _swap_d0_d1_in_dimension_2(monkeypatch, Rel2Backend, lambda b: b.spec is pt)
    rep = base_change_check(bf, pt, 3)
    assert rep["isomorphism"] and not rep["faces_commute"]


# chi_groth_comparison's counts at dim 4; every pi_star_check flag holds at dim 3
COMPARISON_COUNTS = {
    "arrow-fold": [(4, 4), (11, 11), (26, 26), (57, 57), (120, 120)],
    "two-chain-mixed": [(6, 6), (16, 16), (32, 32), (55, 55), (86, 86)],
}


def test_comparisons_read_only_the_tables_handed_in(monkeypatch):
    battery = dict(functor_battery())
    tables = {name: (relative_nerve_1(battery[name], 4),
                     relative_nerve_2(battery[name], 3))
              for name in COMPARISON_COUNTS}

    def refuse(self, k):
        raise AssertionError("a comparison enumerated a family nerve")

    monkeypatch.setattr(Rel1Backend, "simplices", refuse)
    monkeypatch.setattr(Rel2Backend, "simplices", refuse)
    every_dim = {k: True for k in range(4)}
    for name, counts in COMPARISON_COUNTS.items():
        rel1, rel2 = tables[name]
        assert chi_groth_comparison(rel1, 4) == {
            "counts": counts, "bijective": True, "faces_commute": True}
        assert pi_star_check(rel1, rel2, 3) == {
            "well_defined": True, "faces_commute": True,
            "degeneracies_commute": True, "markings_match": True,
            "projection_commutes": True,
            "injective": every_dim, "bijective": every_dim}


def _path_cell_by_folding(base, s, pos_mask):
    ps = bit_list(pos_mask)
    out = base.cell(s, ps[0], ps[0])
    for a, b in zip(ps, ps[1:]):
        out = base.compose(out, base.cell(s, a, b))
    return out


def test_path_cell_equals_the_fold_of_cell_and_compose():
    battery = dict(functor_battery())
    for sp in [oriental_two_spec(), battery["two-chain-mixed"],
               battery["two-chain-parallel"]]:
        back = Rel2Backend(sp)
        for _ in range(2):  # the second round reads the memo
            for k in range(4):
                for s in back.base.simplices(k):
                    for mask in range(1, 1 << (k + 1)):
                        assert back.path_cell(s, mask) == \
                            _path_cell_by_folding(back.base, s, mask), (s, mask)


def test_marked_edges_are_value_isomorphisms():
    sp = arrow_base_spec({0: walking_iso(), 1: chain_category(1)})
    x = relative_nerve_2(sp, 1)
    for z in x.cells[1]:
        vertex_value = sp.values[z[0][0][0]]
        assert x.backend.marked(z) == vertex_value.is_iso(z[2][0])
    assert 0 < sum(map(x.backend.marked, x.cells[1])) < len(x.cells[1])



def _marking_backends():
    """(name, backend, whether it marks edges, whether it has thin triangles)."""
    battery = functor_battery()
    for name, sp in [*battery, ("oriental-two", oriental_two_spec()),
                     ("three-chain", chain3_spec())]:
        yield name, Rel2Backend(sp), True, True
        if not sp.oriental_base:
            yield name, Rel1Backend(sp), True, False
    for m in (2, 3):
        yield f"oriental-{m}", OrientalScaledBackend(m), False, True
    for name, sp in battery:
        yield name, CategoryNerveBackend(sp.base), True, True


def test_degenerate_edges_are_marked_and_degenerate_triangles_thin():
    seen = 0
    for name, back, marks, thins in _marking_backends():
        t = SimplexTable(back, 2)
        if marks:
            assert all(map(back.marked, t.degenerate[1])), name
        if thins:
            assert all(map(back.thin, t.degenerate[2])), name
        seen += marks * len(t.degenerate[1]) + thins * len(t.degenerate[2])
    assert seen


@pytest.mark.parametrize("cls, marks", [(Rel2Backend, True), (Rel1Backend, False)],
                         ids=["rel2-marks-all", "rel1-marks-none"])
def test_pi_star_check_catches_a_changed_marking(monkeypatch, cls, marks):
    battery = functor_battery()
    assert all(pi_star(sp, 2)["markings_match"] for _, sp in battery)
    monkeypatch.setattr(cls, "marked", lambda self, z: marks)
    assert not all(pi_star(sp, 2)["markings_match"] for _, sp in battery)


# --- base change ----------------------------------------------------------


def test_base_change_along_edge_inclusion():
    c1, c2 = chain_category(1), chain_category(2)
    const0 = CatFunctor.constant(c1, c1, 0)
    ident = CatFunctor.identity(c1)
    sp = FunctorSpec(c2, {0: c1, 1: c1, 2: c1},
                     {(0, 1): const0, (1, 2): ident, (0, 2): const0})
    bf = CatFunctor(c1, c2, {0: 0, 1: 2},
                    {(0, 0): (0, 0), (1, 1): (2, 2), (0, 1): (0, 2)})
    pulled = pull_spec(bf, sp)
    assert pulled.values[1] is sp.values[2]
    assert pulled.functor((0, 1)).equals(sp.functor((0, 2)))
    rep = base_change_check(bf, sp, 2)
    assert rep["isomorphism"]
    assert rep["faces_commute"]
    assert all(d["match"] for d in rep["dims"].values())


def test_pull_spec_rejects_oriental_base():
    sp = oriental2_spec()
    with pytest.raises(ValueError, match="category bases"):
        pull_spec(CatFunctor.identity(chain_category(1)), sp)


# --- misc helpers ---------------------------------------------------------


def test_pair_order_shape():
    assert pair_order(2) == [(0, 1), (0, 2), (1, 2)]
    assert len(pair_order(4)) == 10


def test_oriental_thin_rule():
    back = OrientalScaledBackend(2)
    assert back.thin(((0, 1, 2), (0b011, 0b111, 0b110)))
    assert not back.thin(((0, 1, 2), (0b011, 0b101, 0b110)))


def test_rho_plan_keys_are_the_image_of_rho():
    for imask in range(1, 1 << 5):
        for jmask in subsets_of(imask):
            if jmask == 0:
                continue
            image = rho_image(imask, jmask)
            comparable = {(a, b) for a in image for b in image if d_leq(a, b)}
            plan = rho_plan(imask, jmask)
            elems = [m for _, keys, _ in plan for m, _ in keys]
            pairs = [ikey for _, _, steps in plan
                     for _, keys in steps for ikey, _ in keys]
            assert sorted(elems) == image
            assert len(set(pairs)) == len(pairs)
            assert set(pairs) == comparable
