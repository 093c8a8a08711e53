import hashlib
import json

import pytest

from nervecheck import cli, homotopy, suites
from nervecheck.battery import DEFAULT_SEED, functor_battery
from nervecheck.category import FiniteCategory, chain_category, label_str, walking_iso
from nervecheck.funcspec import FunctorSpec
from nervecheck.cli import main
from nervecheck.report import PASS
from test_funcspec import oriental2_spec


def _spec_file(tmp_path, name):
    spec = dict(functor_battery())[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec.to_json()))
    return path


def test_dn_prints_poset(capsys):
    assert main(["dn", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "4 elements" in out
    assert "012 < 02" in out


# SHA-256 of `dn --n 12` stdout: 4,096 elements, 10-12 printed as a-c, and
# 22,529 covers
DN12_SHA = "c991462a9460fa01af27bc4fb602412ad7664ea503d07717817d72c2ed72f25e"


@pytest.mark.slow
def test_dn_n12_output_is_pinned(capsys):
    assert main(["dn", "--n", "12"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == DN12_SHA


def test_dn_requires_a_ground_set(capsys):
    assert main(["dn"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_dn_labels_past_nine_are_distinct_and_read_back(tmp_path, capsys):
    out = tmp_path / "d10.json"
    assert main(["dn", "--n", "10", "--json", str(out)]) == 0
    labels = json.loads(out.read_text())["elements"]
    assert len(set(labels)) == len(labels) == 1 << 10
    assert labels[-1] == "0123456789a"
    assert main(["dn", "--ground", "0a"]) == 0
    assert "D-poset on {0a}: 2 elements\n  0 < 0a\n" in capsys.readouterr().out


def test_dn_json_is_built_only_for_json(tmp_path, monkeypatch):
    out = tmp_path / "d2.json"
    assert main(["dn", "--n", "2", "--json", str(out)]) == 0
    assert json.loads(out.read_text()) == {
        "ground": "012", "elements": ["0", "01", "02", "012"],
        "covers": [["0", "01"], ["01", "012"], ["012", "02"]],
        "minimum": "0", "maximum": "02"}

    def refuse(self):
        raise AssertionError("JSON payload built without --json")
    monkeypatch.setattr(cli.Poset, "minimum", refuse)
    monkeypatch.setattr(cli.Poset, "maximum", refuse)
    assert main(["dn", "--n", "2"]) == 0


def test_dn_dot_export(tmp_path):
    dot = tmp_path / "d2.dot"
    assert main(["dn", "--n", "2", "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")


@pytest.mark.parametrize("argv", [
    ["dn", "--n", "3"],
    ["mapping-space", "--n", "3", "--i", "1", "--from", "0", "--to", "03"],
    ["mapping-space", "--n", "3", "--i", "1", "--from", "0", "--to", "03",
     "--model", "necklace"],
])
def test_dot_is_built_only_for_dot(argv, tmp_path, monkeypatch):
    out = tmp_path / "out.json"
    assert main([*argv, "--json", str(out)]) == 0
    want = out.read_text()

    def refuse(self, label):
        raise AssertionError("DOT built without --dot")
    monkeypatch.setattr(cli.Poset, "to_dot", refuse)
    assert main([*argv, "--json", str(out)]) == 0
    assert out.read_text() == want
    monkeypatch.undo()
    dot = tmp_path / "out.dot"
    assert main([*argv, "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")


def test_verify_writes_report_json(capsys, tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify", "lemma-distant", "--n", "2", "--json", str(out)])
    assert rc == 0
    assert "3 passed, 0 failed" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert len(data["digest"]) == 64
    assert data["counts"]["PASS"] == 3
    assert all("wall_ms" in c for c in data["checks"])


# each suite's report at its defaults and with every flag it takes set:
# a parameter is named when its value is not None, so the oracle's deep
# shows only when set and the theorem's deep always
@pytest.mark.parametrize("suite, flags, shown", [
    ("theorem-contractible", [], {"deep": False, "seed": DEFAULT_SEED, "samples": 6}),
    ("theorem-contractible", ["--n", "2", "--deep", "--seed", "3", "--samples", "2"],
     {"n": 2, "deep": True, "seed": 3, "samples": 2}),
    *((name, [], {}) for name in ("lemma-distant", "lemma-close", "lemma-admissible",
                                  "adjoint-lambda", "straightening-fragment",
                                  "reduced-lifting", "nerve-comparison", "base-change")),
    *((name, ["--n", "2"], {"n": 2}) for name in (
        "lemma-distant", "lemma-close", "lemma-admissible", "adjoint-lambda",
        "straightening-fragment", "reduced-lifting")),
    ("lemma-colimit", [], {"count": 25, "seed": DEFAULT_SEED}),
    ("lemma-colimit", ["--count", "2", "--seed", "3"], {"count": 2, "seed": 3}),
    ("oracle-flag-necklace", [], {"count": 20, "seed": DEFAULT_SEED}),
    ("oracle-flag-necklace", ["--deep"], {"count": 20, "seed": DEFAULT_SEED, "deep": True}),
    ("oracle-flag-necklace", ["--n", "3", "--count", "2", "--seed", "3", "--deep"],
     {"n": 3, "count": 2, "seed": 3, "deep": True}),
])
def test_verify_reports_the_parameters_it_ran(suite, flags, shown, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", suite, *flags, "--json", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["parameters"] == shown


def test_suite_parameters_are_the_verify_flags():
    args = vars(cli.build_parser().parse_args(["verify", "lemma-close"]))
    flags = set(args) - {"command", "suite", "jobs", "json", "func"}
    assert flags == {"n", "deep", "seed", "count", "samples"}
    assert set().union(*(build.params for build in suites.SUITES.values())) == flags


def test_verify_rejects_n_above_ceiling(capsys):
    assert main(["verify", "theorem-contractible", "--n", "5"]) == 64
    assert "--deep" in capsys.readouterr().err


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "not-a-suite"]) == 64
    capsys.readouterr()


def test_mapping_space_models_agree(capsys):
    rc = main(["mapping-space", "--n", "2", "--i", "1",
               "--from", "0", "--to", "02"])
    assert rc == 0
    assert "models agree: True" in capsys.readouterr().out


def test_homology_reports_a_hole(capsys, tmp_path):
    src = tmp_path / "hollow.json"
    src.write_text(json.dumps({"simplices": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["homology", "--input", str(src)]) == 0
    out = capsys.readouterr().out
    assert "NotContractible" in out
    assert "betti" in out


RP2 = [[0, 1, 2], [0, 2, 3], [0, 1, 5], [0, 3, 4], [0, 4, 5],
       [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5]]


def test_homology_prints_torsion_of_the_projective_plane(capsys, tmp_path):
    src, out = tmp_path / "rp2.json", tmp_path / "rp2-out.json"
    src.write_text(json.dumps({"simplices": RP2}))
    assert main(["homology", "--input", str(src), "--json", str(out)]) == 0
    assert "  H~_1: betti 0, torsion [2]" in capsys.readouterr().out.splitlines()
    data = json.loads(out.read_text())
    assert data["torsion"] == [[], [2], []]
    assert data["verdict"]["method"] == "homology"
    assert data["verdict"]["status"] == "NotContractible"


def test_homology_computes_homology_at_most_once(monkeypatch, tmp_path, capsys):
    calls = []
    inner = homotopy.homology

    def counted(cx):
        calls.append(len(cx))
        return inner(cx)

    monkeypatch.setattr(homotopy, "homology", counted)
    rp2 = tmp_path / "rp2.json"
    rp2.write_text(json.dumps({"simplices": RP2}))
    assert main(["homology", "--input", str(rp2)]) == 0
    assert len(calls) <= 1
    capsys.readouterr()
    calls.clear()
    tetrahedron = tmp_path / "tetrahedron.json"
    tetrahedron.write_text(json.dumps({"simplices": [[0, 1, 2, 3]]}))
    assert main(["homology", "--input", str(tetrahedron)]) == 0
    assert calls == []
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"  H~_{k}: betti 0, torsion []" for k in range(4)] + [
        "verdict: Contractible (strong-collapse)"]


def test_nerve2_writes_table(tmp_path, capsys):
    spec = _spec_file(tmp_path, "two-chain-mixed")
    out = tmp_path / "table.json"
    assert main(["nerve2", "--spec", str(spec), "--dim", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    assert data["counts"][0] > 0
    assert 0 < data["marked_edges"] <= data["counts"][1]
    assert len(data["simplices"]["1"]) == data["counts"][1]


def _oriental_spec_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(oriental2_spec().to_json()))
    return path


# sha256 of the whole --out file at --dim 3: the cell listing, its order,
# the counts and the marked and thin tallies
NERVE2_TABLES = {
    "two-chain-mixed": (
        _spec_file, [6, 10, 6, 1], 6, 6,
        "441a91f7a6c18bc430e57909f34b1033e09209da9e91a77f5b2be5b25d23023a"),
    "oriental2": (
        _oriental_spec_file, [6, 13, 17, 20], 8, 9,
        "793e48bc7702915683e43f70c9ba1cb61709323c11341b380c3c1cbe7ee1b529"),
}


@pytest.mark.parametrize("name", sorted(NERVE2_TABLES))
def test_nerve2_table_is_pinned(tmp_path, capsys, name):
    write, counts, marked, thin, sha = NERVE2_TABLES[name]
    out = tmp_path / "table.json"
    assert main(["nerve2", "--spec", str(write(tmp_path, name)), "--dim", "3",
                 "--out", str(out)]) == 0
    assert f"marked edges: {marked}; thin triangles: {thin}" in \
        capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["counts"] == counts
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_compare_nerves_passes_on_battery_spec(tmp_path, capsys):
    spec = _spec_file(tmp_path, "two-chain-mixed")
    assert main(["compare-nerves", "--spec", str(spec), "--dim", "3"]) == 0
    assert "bijective = True" in capsys.readouterr().out


@pytest.mark.parametrize("broken", [False, True], ids=["as-built", "onto-lost"])
def test_compare_nerves_follows_the_suite_rule(broken, tmp_path, capsys,
                                               monkeypatch):
    # --dim 4 runs both comparisons at the dimensions nerve-comparison
    # uses; the broken case keeps injectivity but loses bijectivity on edges
    name = "two-chain-mixed"
    if broken:
        real = suites.pi_star_check

        def onto_lost(*args):
            rep = real(*args)
            rep["bijective"][1] = False
            return rep

        monkeypatch.setattr(suites, "pi_star_check", onto_lost)
    ids = {f"{name}/total-category", f"{name}/comparison-map"}
    verdicts = [c.fn(*c.args)[0] for c in suites.SUITES["nerve-comparison"]({})
                if c.id in ids]
    rc = main(["compare-nerves", "--spec", str(_spec_file(tmp_path, name)),
               "--dim", "4"])
    capsys.readouterr()
    assert len(verdicts) == 2
    assert rc == (0 if verdicts == [PASS, PASS] else 1) == (1 if broken else 0)


def test_lift_check_collapse_target(tmp_path, capsys):
    spec = dict(functor_battery())["two-chain-parallel"]
    path = tmp_path / "lift.json"
    path.write_text(json.dumps({"functor": spec.to_json(), "target": "collapse"}))
    assert main(["lift-check", "--n", "2", "--spec", str(path)]) == 0
    assert "bijective: True" in capsys.readouterr().out


def _edge02_file(tmp_path):
    """The base functor [1] -> [2] onto the long edge 0 -> 2."""
    c1, c2 = chain_category(1), chain_category(2)
    fdata = {
        "source": c1.to_json(),
        "target": c2.to_json(),
        "obj": {"0": "0", "1": "2"},
        "mor": {label_str((0, 0)): label_str((0, 0)),
                label_str((1, 1)): label_str((2, 2)),
                label_str((0, 1)): label_str((0, 2))},
    }
    fpath = tmp_path / "edge02.json"
    fpath.write_text(json.dumps(fdata))
    return fpath


def _arrow_to_iso_file(tmp_path):
    """The base functor [1] -> walking iso onto its arrow a -> b."""
    iso = walking_iso()
    fdata = {"source": chain_category(1).to_json(), "target": iso.to_json(),
             "obj": {"0": "a", "1": "b"},
             "mor": {label_str((0, 0)): "ida", label_str((1, 1)): "idb",
                     label_str((0, 1)): "u"}}
    fpath = tmp_path / "arrow_to_iso.json"
    fpath.write_text(json.dumps(fdata))
    return fpath


def test_base_change_long_edge(tmp_path, capsys):
    spec = _spec_file(tmp_path, "two-chain-mixed")
    fpath = _edge02_file(tmp_path)
    assert main(["base-change", "--f", str(fpath), "--spec", str(spec)]) == 0
    assert "isomorphism: True" in capsys.readouterr().out


@pytest.mark.parametrize("broken", [False, True], ids=["as-built", "faces-broken"])
def test_base_change_follows_the_suite_rule(broken, tmp_path, capsys, monkeypatch):
    # the broken case keeps the isomorphism but loses the face maps
    if broken:
        real = suites.base_change_check

        def faces_lost(bf, sp, dim):
            rep = real(bf, sp, dim)
            rep["faces_commute"] = False
            return rep

        monkeypatch.setattr(suites, "base_change_check", faces_lost)
    verdicts = [c.fn(*c.args)[0] for c in suites.SUITES["base-change"]({})
                if c.id == "face/two-chain-mixed@02"]
    rc = main(["base-change", "--f", str(_edge02_file(tmp_path)),
               "--spec", str(_spec_file(tmp_path, "two-chain-mixed")), "--dim", "3"])
    out = capsys.readouterr().out
    assert len(verdicts) == 1
    assert f"isomorphism: True  faces commute: {not broken}" in out
    assert rc == (0 if verdicts == [PASS] else 1) == (1 if broken else 0)


@pytest.mark.parametrize("argv", [
    ["horn", "--n", "3", "--i", "3"],
    ["mapping-space", "--n", "3", "--from", "0", "--to", "9"],
    ["mapping-space", "--n", "3", "--from", "03", "--to", "0"],
    ["dn", "--ground", "0d"],
    ["verify", "lemma-colimit", "--count", "-3"],
    ["verify", "theorem-contractible", "--deep", "--n", "5", "--samples", "0"],
    ["verify", "lemma-distant", "--jobs", "0"],
    ["verify", "base-change", "--n", "3"],
    ["verify", "lemma-distant", "--seed", "3"],
    ["mapping-space", "--n", "3", "--from", "0", "--to", "03", "--dim", "-1"],
    ["nerve2", "--spec", "F.json", "--dim", "-1", "--out", "T.json"],
    ["compare-nerves", "--spec", "F.json", "--dim", "-1"],
    ["base-change", "--f", "f.json", "--spec", "F.json", "--dim", "-1"],
    ["dn", "--n", "2", "--seed", "5", "--deep"],
    ["dn", "--n", "2", "--deep"],
    ["horn", "--n", "3", "--i", "1", "--seed", "5"],
    ["homology", "--input", "X.json", "--deep"],
    ["homology", "--input", "{dir}"],
    ["homology", "--input", "{binary}"],
    ["homology", "--input", "{string_simplices}"],
    ["homology", "--input", "{object_simplex}"],
    ["compare-nerves", "--spec", "{oriental}", "--dim", "2"],
    ["base-change", "--f", "{edge}", "--spec", "{oriental}"],
    ["lift-check", "--n", "1", "--spec", "F.json"],
    ["mapping-space", "--n", "5", "--i", "1", "--from", "0", "--to", "01",
     "--model", "necklace"],
    ["mapping-space", "--n", "7", "--i", "3", "--from", "0", "--to", "07",
     "--model", "both"],
    ["homology", "--input", "{simplex24}"],
    ["verify", "lemma-close", "--dot", "x"],
    ["nerve2", "--spec", "{oriental}", "--dim", str(cli.MAX_DIM_NERVE2 + 1),
     "--out", "{dir}/T.json"],
    ["compare-nerves", "--spec", "{mixed}", "--dim", str(cli.MAX_DIM_COMPARE + 1)],
    ["base-change", "--f", "{edge}", "--spec", "{mixed}",
     "--dim", str(cli.MAX_DIM_BASE_CHANGE + 1)],
    ["lift-check", "--n", str(cli.MAX_N_LIFT + 1), "--spec", "{mixed}"],
    ["verify", "lemma-colimit", "--count", str(cli.MAX_COUNT + 1)],
    ["base-change", "--f", "{edge}", "--spec", "{fold}"],
    ["base-change", "--f", "{to_iso}", "--spec", "{mixed}"],
    ["lift-check", "--n", "2", "--spec", "{empty_base}"],
    ["lift-check", "--n", "2", "--spec", "{oriental_m_negative}"],
    ["nerve2", "--spec", "{empty_base}", "--dim", "2", "--out", "{dir}/T.json"],
    ["compare-nerves", "--spec", "{empty_base}", "--dim", "2"],
    ["base-change", "--f", "{empty_functor}", "--spec", "{empty_base}"],
    ["dn", "--n", "2", "--json", "{dir}"],
    ["dn", "--n", "2", "--json", "{mixed}/x.json"],
    ["verify", "lemma-close", "--json", "{dir}"],
    ["nerve2", "--spec", "{mixed}", "--dim", "1", "--out", "{dir}"],
    ["dn", "--n", "2", "--dot", "{dir}"],
], ids=["horn-outer-i", "mapping-unknown-target", "mapping-not-below",
        "ground-not-digits", "count-negative", "samples-zero", "jobs-zero",
        "verify-n-not-taken", "verify-seed-not-taken", "mapping-dim-negative",
        "nerve2-dim-negative", "compare-dim-negative", "base-change-dim-negative",
        "dn-seed-deep", "dn-deep", "horn-seed", "homology-deep",
        "homology-input-directory", "homology-input-not-utf8",
        "homology-simplices-string", "homology-simplex-object",
        "compare-nerves-oriental-base", "base-change-oriental-base",
        "lift-check-n-1", "mapping-necklace-n5", "mapping-both-n7",
        "homology-simplex-24-vertices", "verify-dot", "nerve2-dim-above-ceiling",
        "compare-dim-above-ceiling", "base-change-dim-above-ceiling",
        "lift-check-n-above-ceiling", "count-above-ceiling",
        "base-change-target-has-an-extra-object", "base-change-target-not-the-base",
        "lift-check-empty-base", "lift-check-oriental-m-negative",
        "nerve2-empty-base", "compare-nerves-empty-base", "base-change-empty-base",
        "dn-json-dir", "dn-json-under-file", "verify-json-dir", "nerve2-out-dir",
        "dn-dot-dir"])
def test_usage_errors_exit_64_with_one_line(argv, tmp_path, capsys):
    paths = {"dir": tmp_path, "binary": tmp_path / "binary.json",
             "string_simplices": tmp_path / "string.json",
             "object_simplex": tmp_path / "object.json",
             "oriental": tmp_path / "oriental.json",
             "edge": _edge02_file(tmp_path),
             "mixed": _spec_file(tmp_path, "two-chain-mixed"),
             "fold": _spec_file(tmp_path, "arrow-fold"),
             "to_iso": _arrow_to_iso_file(tmp_path),
             "empty_base": tmp_path / "empty_base.json",
             "empty_functor": tmp_path / "empty_functor.json",
             "oriental_m_negative": tmp_path / "oriental_m_negative.json",
             "simplex24": tmp_path / "simplex24.json"}
    paths["binary"].write_bytes(b"\xff\xfe\x00bad")
    paths["oriental"].write_text(json.dumps(oriental2_spec().to_json()))
    no_objects = FiniteCategory((), (), {}, {}, {}, {})
    paths["empty_base"].write_text(json.dumps(FunctorSpec(no_objects, {}, {}).to_json()))
    paths["empty_functor"].write_text(json.dumps(
        {"source": no_objects.to_json(), "target": no_objects.to_json(), "obj": {}, "mor": {}}))
    paths["oriental_m_negative"].write_text(json.dumps(
        {"base": {"kind": "oriental", "m": -1}, "values": {}, "action": {},
         "two_cells": {}}))
    paths["string_simplices"].write_text(json.dumps({"simplices": "abc"}))
    paths["object_simplex"].write_text(json.dumps({"simplices": [{"x": 1}]}))
    # 16.7M faces once closed: refused before closing
    paths["simplex24"].write_text(json.dumps({"simplices": [list(range(24))]}))
    assert main([a.format(**paths) for a in argv]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


OUT_OF_RANGE = "--n out of range (0..7)"
FULL_NERVE_N7 = "--n out of range without --i (0..6): the full nerve of D^7 is too large"
NECKLACE_N5 = "D^5 has 32 vertices, the necklace oracle takes at most 16"


@pytest.mark.parametrize("argv,message", [
    (["horn", "--n", "8", "--i", "1"], OUT_OF_RANGE),
    (["mapping-space", "--n", "8", "--from", "0", "--to", "08"], OUT_OF_RANGE),
    (["mapping-space", "--n", "-1", "--from", "0", "--to", "0"], OUT_OF_RANGE),
    (["mapping-space", "--n", "5", "--from", "0", "--to", "05"],
     "--model both: " + NECKLACE_N5),
    (["mapping-space", "--n", "5", "--from", "0", "--to", "05",
      "--model", "necklace"], "--model necklace: " + NECKLACE_N5),
    (["mapping-space", "--n", "7", "--from", "0", "--to", "07", "--model", "flag"],
     FULL_NERVE_N7),
], ids=["horn-n8", "mapping-n8", "mapping-n-negative", "mapping-both-n5",
        "mapping-necklace-n5", "mapping-flag-full-nerve-n7"])
def test_size_ceiling_rejects_before_building(argv, message, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built a D-poset outside the size ceiling")

    monkeypatch.setattr(cli, "build_d", refuse)
    monkeypatch.setattr(cli, "admissible_and_superior", refuse)
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err == f"usage error: {message}\n"


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("built a flag model above the simplex ceiling")


def test_flag_model_above_the_simplex_ceiling_is_refused(monkeypatch, capsys):
    # D^5's full nerve from 01 to 05 holds 16.2M simplices (2.26 GB built)
    monkeypatch.setattr(cli, "flag_model", _refuse_to_build)
    assert main(["mapping-space", "--n", "5", "--from", "01", "--to", "05",
                 "--model", "flag"]) == 64
    assert capsys.readouterr().err == (
        "usage error: --model flag: the flag model from 01 to 05 has 16203459 "
        f"simplices, more than {cli.MAX_FLAG_SIMPLICES}\n")


def test_d6_full_nerve_flag_model_is_counted_and_refused(monkeypatch, capsys):
    monkeypatch.setattr(cli, "flag_model", _refuse_to_build)
    assert main(["mapping-space", "--n", "6", "--from", "0", "--to", "06",
                 "--model", "flag"]) == 64
    assert capsys.readouterr().err == (
        "usage error: --model flag: the flag model from 0 to 06 has 320079999371 "
        f"simplices, more than {cli.MAX_FLAG_SIMPLICES}\n")


def test_simplex_ceiling_counts_only_through_dim(monkeypatch, capsys):
    # D^3's full nerve from 0 to 03: [32, 157, 294, 240, 72] by dimension
    monkeypatch.setattr(cli, "MAX_FLAG_SIMPLICES", 200)
    argv = ["mapping-space", "--n", "3", "--from", "0", "--to", "03", "--model", "flag"]
    assert main(argv + ["--dim", "1"]) == 0
    assert capsys.readouterr().out == "flag model counts: [32, 157]\n"
    monkeypatch.setattr(cli, "flag_model", _refuse_to_build)
    assert main(argv + ["--dim", "2"]) == 64
    assert capsys.readouterr().err == (
        "usage error: --model flag: the flag model from 0 to 03 has 483 "
        "simplices, more than 200\n")


def test_flag_model_alone_runs_above_the_necklace_bound(capsys):
    assert main(["mapping-space", "--n", "5", "--i", "1", "--from", "0",
                 "--to", "01", "--model", "flag"]) == 0
    assert capsys.readouterr().out == "flag model counts: [1]\n"


def test_homology_rejects_malformed_json(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text('{"simplices": [[0, 1], [1, 2]')
    assert main(["homology", "--input", str(src)]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["lift-check", "--n", "2", "--spec", "{bad}"],
    ["nerve2", "--spec", "{bad}", "--dim", "1", "--out", "{out}"],
    ["compare-nerves", "--spec", "{bad}", "--dim", "1"],
    ["base-change", "--f", "{bad}", "--spec", "{good}"],
    ["base-change", "--f", "{edge}", "--spec", "{bad}"],
], ids=["lift-check", "nerve2", "compare-nerves", "base-change-f",
        "base-change-spec"])
@pytest.mark.parametrize("content", [{"simplices": [[[0], [1]]]}, [1, 2]],
                         ids=["simplex-list", "list"])
def test_json_of_the_wrong_shape_exits_64(argv, content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    paths = {"bad": bad, "good": _spec_file(tmp_path, "two-chain-mixed"),
             "edge": _edge02_file(tmp_path), "out": tmp_path / "table.json"}
    assert main([a.format(**paths) for a in argv]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "bad.json is not a" in err
