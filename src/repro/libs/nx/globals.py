"""NX global operations: gisum, gdsum, gihigh, gdhigh, gilow, gdlow.

NX/2 shipped a family of global reduction calls every rank enters
together; applications used them constantly (residual norms, global
maxima, convergence tests).  Implemented here as the collectives'
binomial-tree reduce to rank 0 followed by their tree broadcast of the
result — pure software over csend/crecv, like everything else above
VMMC.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Sequence

from .. import collectives
from .api import NXProcess

__all__ = ["gisum", "gdsum", "gihigh", "gilow", "gdhigh", "gdlow", "gcol"]

# Message types of their own: a rank leaving a reduce_int early must not
# have its next global op's contribution taken into that reduction.
_GLOBAL_REDUCE = 0x7FFD0001
_GLOBAL_BCAST = 0x7FFD0002
_GLOBAL_CONCAT = 0x7FFD0003


def _global_op(nx: NXProcess, values: List, fmt: str,
               combine: Callable[[Sequence, Sequence], List]):
    """Tree-reduce ``values`` elementwise to rank 0, broadcast back.

    ``fmt`` is the struct element code ('q' or 'd'); every rank returns
    the combined list.
    """
    layout = struct.Struct("<%d%s" % (len(values), fmt))

    def merge(mine: bytes, theirs: bytes) -> bytes:
        return layout.pack(*combine(layout.unpack(mine),
                                    layout.unpack(theirs)))

    space = nx.proc.space
    nbytes = max(layout.size, 1)
    buf = space.mmap(nbytes)
    try:
        nx.proc.poke(buf, layout.pack(*values))
        yield from collectives.reduce(nx, buf, layout.size, merge,
                                      mtype=_GLOBAL_REDUCE)
        yield from collectives.broadcast(nx, buf, layout.size,
                                         mtype=_GLOBAL_BCAST)
        return list(layout.unpack(nx.proc.peek(buf, layout.size)))
    finally:
        space.unmap(buf, nbytes)


def _elementwise(op):
    return lambda a, b: [op(x, y) for x, y in zip(a, b)]


def gisum(nx: NXProcess, values: List[int]):
    """Global integer sum, elementwise over ``values``; all ranks get
    the result."""
    result = yield from _global_op(nx, values, "q", _elementwise(lambda a, b: a + b))
    return result


def gdsum(nx: NXProcess, values: List[float]):
    """Global double sum."""
    result = yield from _global_op(nx, values, "d", _elementwise(lambda a, b: a + b))
    return result


def gihigh(nx: NXProcess, values: List[int]):
    """Global integer maximum."""
    result = yield from _global_op(nx, values, "q", _elementwise(max))
    return result


def gilow(nx: NXProcess, values: List[int]):
    """Global integer minimum."""
    result = yield from _global_op(nx, values, "q", _elementwise(min))
    return result


def gdhigh(nx: NXProcess, values: List[float]):
    """Global double maximum."""
    result = yield from _global_op(nx, values, "d", _elementwise(max))
    return result


def gdlow(nx: NXProcess, values: List[float]):
    """Global double minimum."""
    result = yield from _global_op(nx, values, "d", _elementwise(min))
    return result


def gcol(nx: NXProcess, vaddr: int, nbytes: int):
    """Global concatenation: every rank contributes ``nbytes`` at
    ``vaddr``; all ranks receive the rank-ordered concatenation.

    Gather to rank 0, then broadcast the concatenation (the classic
    gcolx shape, with equal contributions).
    """
    size = nx.numnodes()
    me = nx.mynode()
    total = nbytes * size
    space = nx.proc.space
    gathered = space.mmap(total)
    try:
        if me == 0:
            nx.proc.poke(gathered, nx.proc.peek(vaddr, nbytes))
            # Typed receives place each rank's piece directly
            # (out-of-order consumption is exactly what NX's credit
            # scheme permits).
            for rank in range(1, size):
                yield from nx.crecv(_GLOBAL_CONCAT + 1000 + rank,
                                    gathered + rank * nbytes, nbytes)
            for child in range(1, size):
                yield from nx.csend(_GLOBAL_CONCAT, gathered, total, to=child)
        else:
            yield from nx.csend(_GLOBAL_CONCAT + 1000 + me, vaddr, nbytes,
                                to=0)
            yield from nx.crecv(_GLOBAL_CONCAT, gathered, total)
        return nx.proc.peek(gathered, total)
    finally:
        space.unmap(gathered, total)
