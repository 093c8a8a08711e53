"""Bitmask helpers for subsets of naturals.

Subsets of {0, ..., 63} are stored as Python ints.  Bit j set means j is
in the subset.  All set algebra is then &, |, ~ on ints, and min/max are
bit scans.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for j in items:
        if j < 0:
            raise ValueError("negative element")
        m |= 1 << j
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bits of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


def min_bit(mask: int) -> int:
    if mask == 0:
        raise ValueError("empty mask has no minimum")
    return (mask & -mask).bit_length() - 1


def max_bit(mask: int) -> int:
    if mask == 0:
        raise ValueError("empty mask has no maximum")
    return mask.bit_length() - 1


def interval_mask(a: int, b: int) -> int:
    """Mask of the integer interval [a, b]; empty when a > b."""
    if a > b:
        return 0
    return ((1 << (b + 1)) - 1) & ~((1 << a) - 1)


def subsets_of(mask: int) -> Iterator[int]:
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def nonempty_subsets_of(mask: int) -> Iterator[int]:
    for sub in subsets_of(mask):
        if sub:
            yield sub


def subsets_with_min_max(mask: int, lo: int, hi: int) -> Iterator[int]:
    """Submasks of mask with minimum lo and maximum hi, in increasing order."""
    if not (mask >> lo) & 1 or not (mask >> hi) & 1:
        return
    if lo > hi:
        return
    if lo == hi:
        yield 1 << lo
        return
    ends = (1 << lo) | (1 << hi)
    middle = mask & interval_mask(lo + 1, hi - 1)
    for sub in sorted(subsets_of(middle)):
        yield sub | ends


def digits(mask: int) -> str:
    """Render a subset as a digit string, e.g. {0,1,3} -> "013"."""
    return "".join(str(j) for j in bits(mask))


def from_digits(s: str) -> int:
    if not s:
        raise ValueError("empty digit string")
    return mask_of(int(c) for c in s)
