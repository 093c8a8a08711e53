import pytest

from nervecheck.bits import from_digits
from nervecheck.category import CatFunctor, FiniteCategory, chain_category
from nervecheck.funcspec import (
    FunctorSpec,
    constant_spec,
    digits,
    identity_two_cells,
    one_cells,
    pair_mask,
)


def test_one_cells_counts():
    assert one_cells(1, 1) == [0b10]
    assert one_cells(0, 1) == [0b11]
    assert len(one_cells(0, 2)) == 2
    assert len(one_cells(0, 3)) == 4
    assert digits(from_digits("013")) == "013"


def test_constant_spec_over_category():
    spec = constant_spec(chain_category(2), chain_category(1))
    f = spec.functor((0, 2))
    assert f.obj == {0: 0, 1: 1}
    comp = spec.tau((0, 2), (0, 2))
    assert comp == {0: (0, 0), 1: (1, 1)}


def test_category_base_functoriality_enforced():
    base = chain_category(2)
    e = chain_category(1)
    const0 = CatFunctor(e, e, {0: 0, 1: 0}, {m: (0, 0) for m in e.morphisms})
    good = {(0, 1): const0, (1, 2): CatFunctor.identity(e), (0, 2): const0}
    FunctorSpec(base, {i: e for i in range(3)}, good)
    bad = {**good, (0, 2): CatFunctor.identity(e)}
    with pytest.raises(ValueError, match="functorial"):
        FunctorSpec(base, {i: e for i in range(3)}, bad)


def test_category_base_missing_action():
    base = chain_category(1)
    e = chain_category(1)
    with pytest.raises(ValueError, match="no action"):
        FunctorSpec(base, {0: e, 1: e}, {})
    with pytest.raises(ValueError, match="two-cell"):
        FunctorSpec(base, {0: e, 1: e},
                    {(0, 1): CatFunctor.identity(e)}, {(0, 1): {}})


def oriental2_spec():
    e = chain_category(1)
    const0 = CatFunctor(e, e, {0: 0, 1: 0}, {m: (0, 0) for m in e.morphisms})
    values = {0: e, 1: e, 2: e}
    action = {pair_mask(0, 1): const0,
              pair_mask(1, 2): CatFunctor.identity(e),
              pair_mask(0, 2): CatFunctor.identity(e)}
    # composite along 012 collapses to 0, so the comparison 02 < 012
    # transports by the unique map 0 -> x
    two = {(from_digits("02"), from_digits("012")): {0: (0, 0), 1: (0, 1)}}
    return FunctorSpec(2, values, action, two)


def test_oriental_spec_builds_and_derives_composites():
    spec = oriental2_spec()
    f = spec.functor(from_digits("012"))
    assert f.obj == {0: 0, 1: 0}
    assert spec.functor(from_digits("02")).obj == {0: 0, 1: 1}
    assert spec.tau(from_digits("02"), from_digits("012"))[1] == (0, 1)


def test_oriental_spec_validation_errors():
    spec = oriental2_spec()
    with pytest.raises(ValueError, match="strict cell pairs"):
        FunctorSpec(2, spec.values, spec.action, {})
    bad_tau = {(from_digits("02"), from_digits("012")): {0: (0, 0), 1: (1, 1)}}
    with pytest.raises(ValueError, match="not natural"):
        FunctorSpec(2, spec.values, spec.action, bad_tau)
    with pytest.raises(ValueError, match="keyed by the two-element"):
        FunctorSpec(2, spec.values, dict(list(spec.action.items())[:2]),
                    spec.two_cells)
    with pytest.raises(ValueError, match="^an oriental base needs m >= 0, got -1$"):
        FunctorSpec(-1, {}, {}, {})


def test_constant_oriental_spec_passes_all_laws():
    for m in (1, 2, 3):
        spec = constant_spec(m, chain_category(1))
        assert spec.functor(from_digits("0" + "123"[:m])).obj == {0: 0, 1: 1}
    spec = constant_spec(3, FiniteCategory.point())
    assert len(spec.two_cells) == 7


def test_identity_components_are_kept_per_cell():
    for spec, cells in [(oriental2_spec(), one_cells(0, 2) + one_cells(1, 1)),
                        (constant_spec(chain_category(2), chain_category(1)),
                         chain_category(2).morphisms)]:
        for cell in cells:
            comp = spec.tau(cell, cell)
            assert spec.tau(cell, cell) is comp
            f = spec.functor(cell)
            assert comp == {x: f.target.ident[f.obj[x]] for x in f.source.objects}
            assert all(f.target.is_identity(h) for h in comp.values())


def test_identity_two_cells_rejected_when_composites_differ():
    spec = oriental2_spec()
    with pytest.raises(ValueError):
        FunctorSpec(2, spec.values, spec.action,
                    identity_two_cells(2, spec.values, spec.action))


def test_json_roundtrip_oriental():
    spec = oriental2_spec()
    data = spec.to_json()
    back = FunctorSpec.from_json(data)
    assert back.oriental_base and back.base == 2
    f = back.functor(from_digits("012"))
    assert f.obj == {"0": "0", "1": "0"}
    assert back.to_json() == FunctorSpec.from_json(back.to_json()).to_json()


def test_json_roundtrip_category():
    spec = constant_spec(chain_category(1), chain_category(1))
    back = FunctorSpec.from_json(spec.to_json())
    assert not back.oriental_base
    assert len(back.base.morphisms) == 3
    assert back.to_json() == FunctorSpec.from_json(back.to_json()).to_json()
