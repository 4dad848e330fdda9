"""Software collectives over NX (system S18 in DESIGN.md).

The co-design discussion (Section 6) records that a hardware multicast
feature was *removed* from the SHRIMP NIC: 'the software designers
found that the multicast feature was not as useful as we originally
thought, and that software implementations of multicast would likely
have acceptable performance.'

This module is that software implementation: binomial-tree broadcast,
reduction, and an all-to-one gather, all expressed in ordinary NX
sends and receives.  The ablation benchmark compares the tree against
a naive sequential multicast to quantify the claim.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional

from .nx.api import NXProcess

__all__ = ["broadcast", "broadcast_naive", "reduce", "reduce_int",
           "gather"]

_BCAST_TYPE = 0x7FFE0001
_REDUCE_TYPE = 0x7FFE0002
_GATHER_TYPE = 0x7FFE0003

_INT = struct.Struct("<q")


def broadcast(nx: NXProcess, vaddr: int, nbytes: int, root: int = 0,
              mtype: int = _BCAST_TYPE):
    """Binomial-tree broadcast of ``nbytes`` at ``vaddr`` from ``root``.

    log2(N) rounds; in round k, every rank that already has the data
    forwards it to the rank 2^k away.  Generator: call from every rank
    with the same arguments; non-roots receive into ``vaddr``.  Its
    messages carry NX type ``mtype``.
    """
    size = nx.numnodes()
    me = (nx.mynode() - root) % size  # root-relative rank
    # Receive from the appropriate parent first (non-roots).
    if me != 0:
        yield from nx.crecv(mtype, vaddr, nbytes)
    # Forward to children: the set bit pattern of a binomial tree.
    mask = 1
    while mask < size:
        if me < mask:
            child = me + mask
            if child < size:
                yield from nx.csend(mtype, vaddr, nbytes,
                                    to=(child + root) % size)
        elif me < 2 * mask:
            pass  # received this round already (me >= mask handled above)
        mask <<= 1


def broadcast_naive(nx: NXProcess, vaddr: int, nbytes: int, root: int = 0):
    """Sequential multicast: the root sends to every rank, one by one.

    The baseline the removed hardware feature would have replaced —
    O(N) serialized sends from one node.
    """
    if nx.mynode() == root:
        for peer in range(nx.numnodes()):
            if peer != root:
                yield from nx.csend(_BCAST_TYPE, vaddr, nbytes, to=peer)
    else:
        yield from nx.crecv(_BCAST_TYPE, vaddr, nbytes)


def reduce(nx: NXProcess, vaddr: int, nbytes: int,
           combine: Callable[[bytes, bytes], bytes], root: int = 0,
           mtype: int = _REDUCE_TYPE):
    """Binomial-tree reduction of the ``nbytes`` at ``vaddr`` on every
    rank.

    Each rank folds what its children send into its own bytes with
    ``combine(mine, theirs)``, which must return as many bytes, and
    passes the result up; the buffer doubles as the receive area, so
    non-roots' buffers end up overwritten.  The root's buffer ends up
    holding the result, which the root also returns; other ranks return
    None.  Its messages carry NX type ``mtype``.
    """
    size = nx.numnodes()
    me = (nx.mynode() - root) % size
    accumulator = nx.proc.peek(vaddr, nbytes)
    mask = 1
    while mask < size:
        if me & mask:
            parent = ((me & ~mask) + root) % size
            nx.proc.poke(vaddr, accumulator)
            yield from nx.csend(mtype, vaddr, nbytes, to=parent)
            return None
        child = me | mask
        if child < size:
            yield from nx.crecv(mtype, vaddr, nbytes)
            accumulator = combine(accumulator, nx.proc.peek(vaddr, nbytes))
        mask <<= 1
    nx.proc.poke(vaddr, accumulator)
    return accumulator


def reduce_int(nx: NXProcess, value: int, op: Callable[[int, int], int],
               root: int = 0):
    """Binomial-tree reduction of one integer; the root returns the
    result, other ranks return None."""
    def combine(mine: bytes, theirs: bytes) -> bytes:
        return _INT.pack(op(_INT.unpack(mine)[0], _INT.unpack(theirs)[0]))

    space = nx.proc.space
    scratch = space.mmap(_INT.size)
    try:
        nx.proc.poke(scratch, _INT.pack(value))
        result = yield from reduce(nx, scratch, _INT.size, combine, root)
    finally:
        space.unmap(scratch, _INT.size)
    return None if result is None else _INT.unpack(result)[0]


def gather(nx: NXProcess, vaddr: int, nbytes: int, root: int = 0):
    """Every rank sends its buffer to the root; the root returns the
    list of payloads indexed by rank (its own included)."""
    if nx.mynode() != root:
        yield from nx.csend(_GATHER_TYPE + nx.mynode(), vaddr, nbytes, to=root)
        return None
    pieces: List[Optional[bytes]] = [None] * nx.numnodes()
    pieces[root] = nx.proc.peek(vaddr, nbytes)
    space = nx.proc.space
    scratch = space.mmap(nbytes)
    try:
        for peer in range(nx.numnodes()):
            if peer == root:
                continue
            yield from nx.crecv(_GATHER_TYPE + peer, scratch, nbytes)
            pieces[peer] = nx.proc.peek(scratch, nbytes)
    finally:
        space.unmap(scratch, nbytes)
    return pieces
