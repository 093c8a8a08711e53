"""Write the n=5 mapping-space size table used by the theorem-n5 workload.

For every inner horn i = 1..4 of D^5 and every strict comparable pair
S < T of D^5 (301 pairs), count the simplices per dimension of the flag
mapping-space model over the horn subcomplex.  The counts come from a
dynamic programme over the admissible chains of each bottom flag, so the
28-million-simplex pair is counted without being built.  Every pair of at
most CROSS_CHECK_MAX simplices is also built with ``mapping.flag_model``
and must give the same counts.

Run once from the repository root (about a minute, stdlib + numpy):

    python3 perfbench/gen_n5_sizes.py

It rewrites ``perfbench/data/n5_sizes.json``.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nervecheck.bits import bits, digits  # noqa: E402
from nervecheck.horn import l_complex  # noqa: E402
from nervecheck.mapping import flag_model  # noqa: E402
from nervecheck.oriental import build_d, standard_interval  # noqa: E402

N = 5
CROSS_CHECK_MAX = 600_000
OUT = HERE / "data" / "n5_sizes.json"


def _k_chains_by_ends(poset, chains):
    """K-chains keyed by (bottom, top) ambient index."""
    out: dict[tuple[int, int], list[int]] = {}
    for c in chains:
        idx = list(bits(c))
        lo = next(a for a in idx if all(poset.leq[a, b] for b in idx))
        hi = next(b for b in idx if all(poset.leq[a, b] for a in idx))
        out.setdefault((lo, hi), []).append(c)
    return out


def _edge_paths(poset, chains, s, t):
    """Chains from s to t whose consecutive elements span edges of K."""
    up = [[b for b in range(len(poset)) if b != a and poset.leq[a, b]
           and poset.leq[b, t]] for a in range(len(poset))]
    found = []

    def walk(path):
        last = path[-1]
        if last == t:
            found.append(path)
            return
        for nxt in up[last]:
            if (1 << last) | (1 << nxt) in chains:
                walk(path + [nxt])

    walk([s])
    return found


def _flag_counts(bottom: int, family: list[int]) -> list[int]:
    """Strict inclusion flags in family starting at bottom, per dimension."""
    order = sorted(family, key=int.bit_count, reverse=True)
    counts: dict[int, list[int]] = {}
    for m in order:
        acc = [1]
        for sup in order:
            if sup.bit_count() <= m.bit_count():
                break
            if m & ~sup == 0:
                below = counts[sup]
                if len(acc) < len(below) + 1:
                    acc.extend([0] * (len(below) + 1 - len(acc)))
                for k, v in enumerate(below):
                    acc[k + 1] += v
        counts[m] = acc
    return counts[bottom]


def pair_counts(poset, chains, by_ends, s: int, t: int) -> list[int]:
    total: list[int] = []
    for path in _edge_paths(poset, chains, s, t):
        choices = [by_ends.get((a, b), []) for a, b in zip(path, path[1:])]
        family = set()
        for pick in product(*choices):
            m = 0
            for c in pick:
                m |= c
            family.add(m)
        bottom = sum(1 << a for a in path)
        for k, v in enumerate(_flag_counts(bottom, sorted(family))):
            if k == len(total):
                total.append(0)
            total[k] += v
    return total


def main() -> int:
    start = time.perf_counter()
    dp = build_d(standard_interval(N))
    p = dp.poset
    pairs = sorted((s, t) for s in p.elements for t in p.elements
                   if s != t and p.less_eq(s, t))
    rows = []
    checked = 0
    for i in range(1, N):
        k = l_complex(N, i, dp)
        by_ends = _k_chains_by_ends(p, k.chains)
        for s, t in pairs:
            counts = pair_counts(p, k.chains, by_ends, p.index[s], p.index[t])
            if sum(counts) <= CROSS_CHECK_MAX:
                built = flag_model(k, s, t).counts()
                if built != counts:
                    raise SystemExit(f"count mismatch at i={i} {digits(s)}-{digits(t)}: "
                                     f"{built} != {counts}")
                checked += 1
            rows.append({"i": i, "s": digits(s), "t": digits(t),
                         "counts": counts, "simplices": sum(counts)})
    OUT.parent.mkdir(exist_ok=True)
    head = json.dumps({"n": N, "cross_checked_max": CROSS_CHECK_MAX})[:-1]
    body = ",\n".join(json.dumps(r) for r in rows)
    OUT.write_text(f'{head}, "rows": [\n{body}\n]}}\n')
    print(f"{len(rows)} rows, {checked} cross-checked against flag_model, "
          f"{time.perf_counter() - start:.0f} s -> {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
