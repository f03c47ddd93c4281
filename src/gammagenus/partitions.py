"""Integer partitions and the fixed ordering used for all matrix indexing."""

from __future__ import annotations

from functools import lru_cache

# A partition is a plain tuple of weakly decreasing positive ints; () is the
# unique partition of 0.
Partition = tuple


def are_letters(parts) -> bool:
    """True if every entry is an int >= 1, not a bool: the one check on the
    parts of a partition, the letters of a word and an MZV's arguments."""
    return all(type(i) is int and i >= 1 for i in parts)


def is_partition(parts) -> bool:
    """True if ``parts`` is weakly decreasing with every part an int >= 1 (no bools)."""
    return are_letters(parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def as_partition(parts) -> Partition:
    """Canonicalize to a tuple, rejecting anything that is not a partition."""
    lam = tuple(parts)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {parts!r}")
    return lam


def weight(lam) -> int:
    return sum(lam)


def sort_key(lam):
    """Key for the fixed total order: weight first, then reverse-lexicographic.

    Within one weight the order runs from (n,) down to (1,)*n; this single
    order indexes every matrix in the package.
    """
    return (sum(lam), tuple(-p for p in lam))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each exactly once, in the fixed order."""
    if n < 0:
        raise ValueError(f"partitions_of expects n >= 0, got {n}")
    out = []

    def descend(remaining, cap, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            descend(remaining - part, part, prefix)
            prefix.pop()

    descend(n, n, [])
    return tuple(out)
