"""The four benchmark workloads: set-up, seeded items, and checked runs.

Each workload is a closed loop in one process: items run one after
another, each checked against an answer fixed outside the program.
``setup`` is what a CLI invocation of that workload pays before its first
result (the import of ``nervecheck.cli`` plus the D-posets and horn
complexes it needs); ``run`` is the timed part of one item.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from nervecheck import cli  # noqa: F401  (the import every CLI call pays)
from nervecheck import homotopy, horn, mapping, oriental, suites
from nervecheck.bits import from_digits

import homology_inputs
from spans import rebind

HERE = Path(__file__).resolve().parent


@dataclass
class Outcome:
    attempted: int
    failed: int
    simplices: int  # simplices of the complexes this item built or checked
    note: dict


class Sweep:
    """All 11 suites at their defaults through suites.run_suite."""

    # check counts per suite at their defaults; a change here is a failure
    CHECKS = {"theorem-contractible": 394, "lemma-distant": 63,
              "lemma-close": 58, "lemma-admissible": 34, "lemma-colimit": 25,
              "adjoint-lambda": 26, "oracle-flag-necklace": 25,
              "nerve-comparison": 31, "straightening-fragment": 35,
              "reduced-lifting": 5, "base-change": 6}
    SEEDED = {"lemma-colimit", "oracle-flag-necklace"}

    def __init__(self):
        self.handed = 0
        self.reports = {}

    def setup(self) -> None:
        for n in range(2, 5):
            suites._dp(n)
            for i in range(1, n):
                suites._horn(n, i)

    def make_items(self, seed: int, out_dir: Path) -> list:
        """Suites with their parameters; also starts counting verdict input."""
        verdict = homotopy.contractibility_verdict

        def counted(cx):
            self.handed += len(cx)
            return verdict(cx)
        rebind(verdict, counted)
        return [(name, {"seed": seed} if name in self.SEEDED else {})
                for name in self.CHECKS]

    def run(self, item, jobs: int = 1) -> Outcome:
        name, params = item
        self.handed = 0
        rep = suites.run_suite(name, params, jobs=jobs)
        self.reports[name] = rep
        bad = sum(c.verdict != "PASS" for c in rep.checks)
        bad += len(rep.checks) != self.CHECKS[name]
        attempted = max(len(rep.checks), 1)
        return Outcome(attempted, min(bad, attempted), self.handed,
                       {"digest": rep.digest()})


class TheoremN5:
    """Seeded (i, S, T) triples at n=5: flag model, complex, verdict."""

    # One heavy pair sets the peak RSS; five light ones fill the pass.  The
    # pairs of 2e5 simplices and more are left out so that a pass is short
    # enough to repeat three times in a run.
    HEAVY = (120_000, 125_000)
    LIGHT = (50_000, 85_000)
    PICKS = 6
    TARGET, TOLERANCE = 450_000, 0.02  # simplices per pass

    def __init__(self):
        self.horns = {}

    def setup(self) -> None:
        dp = oriental.build_d(oriental.standard_interval(5))
        self.horns = {i: horn.l_complex(5, i, dp) for i in range(1, 5)}

    def make_items(self, seed: int, out_dir: Path) -> list:
        table = json.loads((HERE / "data" / "n5_sizes.json").read_text())
        heavy = [r for r in table["rows"]
                 if self.HEAVY[0] <= r["simplices"] <= self.HEAVY[1]]
        light = [r for r in table["rows"]
                 if self.LIGHT[0] <= r["simplices"] <= self.LIGHT[1]]
        rng = random.Random(seed)
        for _ in range(100_000):
            pick = [rng.choice(heavy)] + rng.sample(light, self.PICKS - 1)
            total = sum(r["simplices"] for r in pick)
            if abs(total - self.TARGET) <= self.TOLERANCE * self.TARGET:
                return sorted(pick, key=lambda r: (r["i"], r["s"], r["t"]))
        raise RuntimeError("no triple set near the target size")

    def run(self, row: dict) -> Outcome:
        fm = mapping.flag_model(self.horns[row["i"]], from_digits(row["s"]),
                                from_digits(row["t"]))
        cx = fm.to_complex()
        v = homotopy.contractibility_verdict(cx)
        ok = (v.status == "Contractible" and fm.counts() == row["counts"]
              and len(cx) == row["simplices"])
        return Outcome(1, int(not ok), len(cx),
                       {"status": v.status, "method": v.method})


class HomologyInput:
    """Seeded complexes in `homology --input` form, as cmd_homology runs them."""

    def setup(self) -> None:
        pass

    def make_items(self, seed: int, out_dir: Path) -> list:
        return homology_inputs.write_inputs(
            seed, out_dir / f"homology-input-seed{seed}")

    def run(self, item) -> Outcome:
        path, want = item
        cx = homotopy.complex_from_json(json.loads(path.read_text()))
        h = homotopy.homology(cx)
        v = homotopy.contractibility_verdict(cx)
        got = {"status": v.status, "method": v.method}
        got.update({k: v.detail[k] for k in ("degree", "betti", "torsion")
                    if k in v.detail})
        ok = (h.betti == want["betti"] and h.torsion == want["torsion"]
              and got == want["verdict"])
        return Outcome(1, int(not ok), len(cx), got)


class DPosetLarge:
    """build_d on [0, 10] with its covers, minimum and maximum (`dn --n 10`)."""

    N = 10  # n=11 takes ~15 s, too long to repeat within one run

    def setup(self) -> None:
        pass

    def make_items(self, seed: int, out_dir: Path) -> list:
        return [self.N]  # nothing to seed: the input is fixed

    def run(self, n: int) -> Outcome:
        p = oriental.build_d(oriental.standard_interval(n)).poset
        covers = p.covers
        lo, hi = p.minimum(), p.maximum()
        ok = (len(p) == 2 ** n and len(covers) == (n - 1) * 2 ** (n - 1) + 1
              and lo == 1 and hi == 1 | 1 << n)
        # the Hasse diagram as a 1-dimensional complex: vertices and covers
        return Outcome(1, int(not ok), len(p) + len(covers),
                       {"elements": len(p), "covers": len(covers)})


WORKLOADS = {"sweep": Sweep, "theorem-n5": TheoremN5,
             "homology-input": HomologyInput, "dposet-large": DPosetLarge}
