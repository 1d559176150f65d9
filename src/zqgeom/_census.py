"""What every census shares: the operation meter and its cap, the byte
budgets, the block planner (_blocks) and the streaming merges of sorted values.
Callers read a budget as an attribute of this module when they run, so one
patch of a budget reaches every census that uses it."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

import numpy as np

# operations a scan, sumset, t2 census or orbit cover may take before it is refused
_OP_CAP = 2 * 10**8
# bytes the t2 key count, triangle_classes (by _key_blocks' rule) or so2_table may hold
_CENSUS_BYTES = 1 << 30
# bytes of a working block of the sphere scan, the group products, the orbit minima,
# the differences, the orbit keys or the dense pair counts; also _residues' cutover
# to a seen table, and the cap on the dense (distinct differences)**2 pair table,
# which at this size holds the full Z_27 grid's 729**2 pairs
_BLOCK_BYTES = 1 << 23
# bytes of one int64 block of an area or dot scan, or of a pair product or sum;
# an area or dot scan keeps at most four blocks' worth alive
_SCAN_BYTES = 1 << 22
# values in the first block of a doubling scan, at least: below 2**12 values
# numpy's per-call overhead outweighs a block's arithmetic
_FIRST_BLOCK = 1 << 12
# bytes of a complex kernel row block of the literal Fourier sums: forward_naive
# over 240 points of Z_27^2 peaks at 1.6 MiB with it, 4.1 MiB with 8 MiB blocks
_KERNEL_BYTES = 1 << 20


def _int_dtype(bound: int) -> type:
    """int32 when every value of an array lies below `bound`, at most 2**31, else int64."""
    return np.int32 if bound <= 2**31 else np.int64


class _OverBudget(ValueError):
    """The next step of a metered computation would pass its operation budget."""


class _Meter:
    """Operations one computation spent, each step charged before it runs."""

    def __init__(self, what: str, budget: Optional[int] = None) -> None:
        self.what, self.spent = what, 0
        self.budget = _OP_CAP if budget is None else budget  # _OP_CAP as it is now

    def charge(self, cost: int) -> None:
        if self.spent + cost > self.budget:
            raise _OverBudget(f"{self.what}: {self.spent} operations spent, and {cost} more "
                              f"would pass the {self.budget}-operation budget")
        self.spent += cost


def _blocks(rows: int, width: int, budget: int, itemsize: int = 8, *,
            first: Optional[int] = None, meter: Optional[_Meter] = None) -> Iterator[slice]:
    """Slices covering range(rows), for rows of `width` values of `itemsize`
    bytes, each block at most `budget` bytes, or one row where a row alone
    passes it.  Given `first`, the blocks double from about max(first,
    _FIRST_BLOCK) values up to that cap, so a scan that saturates early
    stops after a few small blocks, and one that does not pays about
    log2(cap / first) extra blocks.  A meter is charged each block's values
    before the block is handed out."""
    cap, s = max(1, budget // (itemsize * max(1, width))), 0
    step = cap if first is None else min(cap, max(1, max(first, _FIRST_BLOCK) // max(1, width)))
    while s < rows:
        stop = min(rows, s + step)
        if meter is not None:
            meter.charge((stop - s) * width)
        yield slice(s, stop)
        s, step = stop, min(cap, 2 * step)


def _heads(values: np.ndarray) -> np.ndarray:
    """Where each run of equal entries (rows, in a 2-D array) of a sorted array starts."""
    head = np.empty(len(values), dtype=bool)
    head[:1], step = True, np.not_equal(values[1:], values[:-1])
    head[1:] = step if values.ndim == 1 else np.logical_or.reduce(step, axis=1)
    return head


def _merged(arrays: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct values of the arrays, emptying the list, so that the
    arrays are freed before the concatenation is sorted in place."""
    values = np.concatenate(arrays)
    arrays.clear()
    values.sort()
    return values[_heads(values)]


def _merge_counts(parts: list) -> tuple[np.ndarray, ...]:
    """Sorted distinct keys over (keys, counts, *extras) parts, each key with
    its summed count and the extras of one of its entries.  Counts and
    extras have the keys' shape, and in a lone part may be broadcast views:
    the extras are read at one entry a key.  The list is emptied, so that
    the parts are freed once concatenated."""
    keys, counts, *extras = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    parts.clear()
    order = np.argsort(keys, axis=None)
    keys = keys.ravel()[order]
    first = np.flatnonzero(_heads(keys))
    at = order[first]
    return keys[first], np.add.reduceat(counts.ravel()[order], first), *(x.flat[at] for x in extras)


def _streamed(parts: Iterable, merge: Callable, size: Callable, empty, full: int = -1):
    """The parts merged into a running result, the first entry of `pending`,
    once they hold as many values (by `size`) as it does, so a merge never
    sorts more than twice what the parts since the last merge contributed;
    stops once the result holds `full` values, and gives `empty` for no parts."""
    pending, held, fresh = [], 0, 0
    for part in parts:
        pending.append(part)
        fresh += size(part)
        del part  # held by the list alone, so that a merge frees it
        if fresh >= held:
            pending = [merge(pending)]
            held, fresh = size(pending[0]), 0
            if held == full:
                break
    if len(pending) > 1:
        pending = [merge(pending)]
    return pending[0] if pending else empty


def _union(parts: Iterable[np.ndarray], full: int = -1) -> np.ndarray:
    """Sorted distinct values over the parts, stopping once `full` distinct
    values have occurred (_streamed).  A merge holds the union, the parts
    and their concatenation, which it then sorts in place: at most about 32
    bytes per distinct int64 value, plus a part."""
    return _streamed((part.ravel() for part in parts), _merged, len, np.empty(0, np.int64), full)


def _tally(blocks: Iterable[tuple]) -> tuple[np.ndarray, ...]:
    """_merge_counts over (values, weights, *extras) blocks, whose weights and
    extras broadcast to the values' shape; each block is reduced to its
    distinct values before _streamed merges it into the running tally."""
    reduced = (_merge_counts([(values, *(np.broadcast_to(x, values.shape) for x in rest))])
               for values, *rest in blocks)
    return _streamed(reduced, lambda parts: parts[0] if len(parts) == 1 else _merge_counts(parts),
                     lambda part: len(part[0]), (np.empty(0, np.int64),) * 2)


def _residues(blocks: Iterable[np.ndarray], q: int, start: int = 0) -> np.ndarray:
    """Sorted values start <= t < q occurring in the blocks, whose entries
    all lie in range(q); stops once every such t has occurred.

    Up to q = _BLOCK_BYTES the values are marked in a q-entry table; above
    it they are tallied, so memory follows the values found, not q.
    """
    if q <= _BLOCK_BYTES:
        seen = np.zeros(q, dtype=bool)
        for block in blocks:
            # an explicit cast: numpy's own cast of int32 indices takes about twice as long
            seen[block.ravel().astype(np.intp, copy=False)] = True
            if seen[start:].all():
                break
        return np.flatnonzero(seen[start:]) + start
    return _union((b[b >= start] for b in blocks), q - start)
