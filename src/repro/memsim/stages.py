"""Exact vectorized stages of the cache path, as pure array functions.

The batch kernel (:mod:`repro.memsim.cachestate`) replays the residual
events of a batch through these, in a chain: the L1 sets
(:func:`lru_stage` with deletion ops), the directory
(:func:`directory_stage`), the stream prefetcher
(:func:`prefetch_walk`) and the L2 sets (:func:`lru_stage` again).
Each function takes its operations in time order plus the state they
start from, and returns exactly what the one-event-at-a-time models
(:class:`~repro.memsim.cache.Cache`,
:class:`~repro.memsim.coherence.Directory`,
:class:`~repro.memsim.prepass.StreamDetector`) would.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.intsort import stable_argsort

__all__ = [
    "directory_stage",
    "lru_stage",
    "mask_bits",
    "bits_masks",
    "prefetch_walk",
]

#: Look-ahead distances :func:`lru_stage` tests as shifted compares over
#: the whole stream before it walks the residencies still undecided.
_SHIFTS = 16
#: Cells (rows x look-ahead columns) of one block of that walk, and the
#: walk's first block width (it doubles while the cells allow).
_WALK_CELLS = 1 << 20
_WALK_WIDTH = 8

#: Directory op kinds: an L1 read miss, a write, a dirty L1 eviction.
OP_READ, OP_WRITE, OP_EVICT = 0, 1, 2

#: Stream positions, ranks and keys are int32, so a stream stays below.
MAX_STREAM = np.iinfo(np.int32).max


def lru_stage(sets: np.ndarray, lines: np.ndarray, writes: np.ndarray,
              ways: int, deletes: np.ndarray = None
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay an op stream over independent LRU sets, vectorized.

    The ops are given in time order; a line is identified by its value
    within its set. A set's start contents go first, as accesses in
    LRU order whose ``writes`` are their dirty bits. ``deletes`` marks
    the ops that remove their line from the set if it is resident (a
    coherence invalidation; their ``writes`` are ignored). Returns
    ``(hit, victim, dirty, end)``:

    - ``hit``: whether each access hits, and whether each deletion
      removed a resident line;
    - ``victim``: for a miss into a full set, the stream index of the
      last access to the line it evicts, else -1;
    - ``dirty``: whether any access of the line's residency up to and
      including this op wrote (``dirty[victim]`` is the victim's dirty
      bit; a deletion reports the residency it found or missed);
    - ``end``: the stream indices of the last accesses to the resident
      lines after the stream, grouped by ascending set, each set's in
      LRU order.

    Stream indices (``victim``, ``end``) are int32: a stream is far
    below 2**31 ops.

    The rule, per residency (an access ``r`` of line X): ``r`` is
    evicted at the first later op ``u`` of its set, before X's next op,
    where ``count_r(u)`` reaches ``ways``. ``count_r`` rises by one at
    an access whose line's previous op is before ``r`` or is a
    deletion (a line newly more recent than X), and falls by one at a
    deletion whose line's previous op is an access after ``r`` (a more
    recent line leaves). Then an op hits iff its line's previous op is
    an access that was not evicted, and the residency evicted at ``u``
    is the victim of the miss at ``u``. The first :data:`_SHIFTS` steps
    are shifted compares over the whole stream; the residencies still
    undecided walk on in blocks until each is decided, so the result is
    exact for any stream. Without deletions this is stack distance
    (Mattson et al., 1970) read forwards.

    Every per-op column is int32, int8 or bool, and each is freed when
    its last reader is done: the stage peaks at about 35 bytes per op
    above its inputs.
    """
    m = len(lines)
    if m > MAX_STREAM:
        raise SimulationError(
            f"lru_stage takes at most {MAX_STREAM} ops, got {m}")
    if m == 0:
        return (np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int32),
                np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int32))
    so = stable_argsort(sets)
    ss = sets[so]
    cut = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    del ss
    sl = lines[so]
    so = so.astype(np.int32)
    # The ops of one line in one set are adjacent in the line order of
    # the set order, in time order.
    by_line = stable_argsort(sl).astype(np.int32)
    lb = sl[by_line]
    del sl
    link = lb[1:] == lb[:-1]
    del lb
    # Next op of each position's line, or the end of its set.
    ends = np.append(cut, m).astype(np.int32)
    nxt = np.repeat(ends, np.diff(ends, prepend=0))
    del ends
    # Equal lines in two sets are adjacent in the line order too: a link
    # is within one set iff it stays before that set's end.
    cur = by_line[1:]
    prv = by_line[:-1]
    link &= cur < nxt[prv]
    cur = cur[link]
    prv = prv[link]
    del link
    nxt[prv] = cur
    prev = np.full(m, -1, dtype=np.int32)
    prev[cur] = prv
    del cur, prv

    # count_r rises at an access u whose line's previous op is before r
    # or is a deletion, and falls at a deletion u whose line's previous
    # op is an access after r. As distances back from u: it rises iff
    # rise[u] > u - r and falls iff fall[u] < u - r.
    pos = np.arange(m, dtype=np.int32)
    fall = None
    isdel = None
    if deletes is not None and deletes.any():
        isdel = np.asarray(deletes, dtype=bool)[so]
        pdel = isdel[prev]
        pdel &= prev >= 0
        fall = pos + 1
        np.subtract(pos, prev, out=fall, where=isdel & ~pdel)
        rise = pos + 1
        np.subtract(pos, prev, out=rise, where=~pdel)
        del pdel
        rise[isdel] = 0
    else:
        rise = pos - prev
    span = nxt
    del nxt
    span -= pos
    del pos
    if isdel is not None:
        span[isdel] = 0

    count = np.zeros(m, dtype=np.int8)
    # Distance to the op that evicts each residency (0: none yet).
    evd = np.zeros(m, dtype=np.int8)
    inc = np.empty(m, dtype=bool)
    dec = np.empty(m, dtype=bool)
    act = np.empty(m, dtype=bool)
    depth = max(0, min(_SHIFTS, int(span.max()) - 1))
    for d in range(1, depth + 1):
        k = m - d
        a = np.greater(span[:k], d, out=act[:k])
        i = np.greater(rise[d:], d, out=inc[:k])
        i &= a
        c = count[:k]
        c += i
        if fall is not None:
            g = np.less(fall[d:], d, out=dec[:k])
            g &= a
            c -= g
        if d >= ways:
            f = np.equal(c, ways, out=act[:k])
            f &= i
            np.copyto(evd[:k], d, where=f)
            np.copyto(span[:k], 0, where=f)
    del inc, dec, act
    ev = np.arange(m, dtype=np.int32)
    ev += evd
    ev[evd == 0] = -1
    del evd
    rest = np.flatnonzero(span > depth).astype(np.int32)
    rows = _WALK_CELLS // _WALK_WIDTH
    for lo in range(0, len(rest), rows):
        _walk(rest[lo:lo + rows], depth, count, span, rise, fall, ways, ev)
    del count, span, rise, fall, rest

    # A residency ends at its line's next op unless it was evicted;
    # ``acc``: the line's previous op is an access.
    kept = ev < 0
    vic = np.full(m, -1, dtype=np.int32)
    gone = np.flatnonzero(~kept)
    vic[ev[gone]] = gone
    del ev, gone
    acc = prev >= 0
    if isdel is not None:
        acc &= ~isdel[prev]
    hit_s = kept[prev]
    hit_s &= acc
    last = np.ones(m, dtype=bool)
    last[prev[prev >= 0]] = False
    del prev

    # A residency is a miss and the ops after it up to its end; it is
    # dirty from its first write on. A deletion continues the
    # residency it finds.
    start = ~hit_s
    w = np.asarray(writes, dtype=bool)[so]
    if isdel is not None:
        start &= ~(isdel & acc)
        w &= ~isdel
    del acc
    start_l = start[by_line]
    del start
    w_l = w[by_line]
    del w
    cw = np.cumsum(w_l, dtype=np.int32)
    base = cw[start_l]
    base -= w_l[start_l]
    del w_l
    group = np.cumsum(start_l, dtype=np.int32)
    del start_l
    group -= 1
    dirty_l = cw > base[group]
    del cw, base, group

    resident = last & kept
    del last, kept
    if isdel is not None:
        resident &= ~isdel
    end = so[np.flatnonzero(resident)]
    del resident

    hit = np.empty(m, dtype=bool)
    hit[so] = hit_s
    del hit_s
    dirty = np.empty(m, dtype=bool)
    dirty[so[by_line]] = dirty_l
    del by_line, dirty_l
    victim = np.full(m, -1, dtype=np.int32)
    has = np.flatnonzero(vic >= 0)
    victim[so[has]] = so[vic[has]]
    return hit, victim, dirty, end


def _walk(rows, depth, count, span, rise, fall, ways, ev) -> None:
    """Walk :func:`lru_stage`'s undecided residencies on past ``depth``.

    Each block looks ahead over ``width`` more positions of every row
    at once; decided rows drop out and the width doubles within
    :data:`_WALK_CELLS`, so a long window costs few blocks.
    """
    cnt = count[rows].astype(np.int32)
    d = depth
    width = _WALK_WIDTH
    top = len(rise) - 1
    while len(rows):
        offs = np.arange(d + 1, d + width + 1, dtype=np.int32)
        inside = offs < span[rows][:, None]
        u = np.minimum(rows[:, None] + offs, top)
        inc = (rise[u] > offs) & inside
        delta = inc.astype(np.int32)
        if fall is not None:
            delta -= (fall[u] < offs) & inside
        del u
        cum = np.cumsum(delta, axis=1, dtype=np.int32)
        del delta
        cum += cnt[:, None]
        evict = inc & (cum == ways)
        event = evict | ~inside
        done = event.any(axis=1)
        at = event.argmax(axis=1)[done]
        j = rows[done]
        out = evict[done, at]
        ev[j[out]] = j[out] + offs[at[out]]
        rows = rows[~done]
        cnt = cum[~done, -1]
        d += width
        width = max(_WALK_WIDTH,
                    min(2 * width, _WALK_CELLS // max(len(rows), 1)))


def mask_bits(masks: Sequence[int], ncores: int) -> np.ndarray:
    """Sharer masks (Python ints) as a ``(len(masks), ncores)`` bool array.

    Masks of any width: each 64-bit word is converted on its own, so a
    128-core mask is exact.
    """
    words = max(1, -(-ncores // 64))
    if words == 1:
        cols = [np.array(masks, dtype="<u8")]
    else:
        full = (1 << 64) - 1
        cols = [np.array([(x >> (64 * k)) & full for x in masks],
                         dtype="<u8") for k in range(words)]
    packed = np.stack(cols, axis=1).view(np.uint8).reshape(
        len(masks), 8 * words)
    bits = np.unpackbits(packed, axis=1, bitorder="little")
    return bits[:, :ncores].astype(bool)


def bits_masks(bits: np.ndarray) -> List[int]:
    """The inverse of :func:`mask_bits`: one Python int per row."""
    n, ncores = bits.shape
    words = max(1, -(-ncores // 64))
    padded = np.zeros((n, 64 * words), dtype=bool)
    padded[:, :ncores] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    w = packed.view("<u8")
    if words == 1:
        return w[:, 0].tolist()
    cols = [w[:, k].tolist() for k in range(words)]
    return [sum(c[i] << (64 * k) for k, c in enumerate(cols))
            for i in range(n)]


def directory_stage(lines: np.ndarray, cores: np.ndarray,
                    kinds: np.ndarray, carried: np.ndarray,
                    owners0: np.ndarray):
    """Replay directory ops per line, vectorized.

    ``lines`` are dense line ids in ``[0, nl)``, every id having at
    least one op; ``kinds`` are :data:`OP_READ` (an L1 read miss),
    :data:`OP_WRITE` (any write) and :data:`OP_EVICT` (a dirty L1
    eviction); the ops are in time order. ``carried`` (``(nl,
    ncores)`` bool) and ``owners0`` are each line's entry before the
    ops (no bits and -1 for a line with no entry). Returns ``(codes,
    end, owners)``: per op ``2 * invalidations + writeback`` as
    :class:`~repro.memsim.coherence.Directory` counts them (0 for an
    eviction), and each line's sharer bits and owner after the ops.

    The rule: each write opens an interval, and a line's first interval
    holds its carried entry. A core's bit at the end of an interval is
    set by its last op there (a read miss or the write set it, an
    eviction clears it), or is the carried bit if it had no op in the
    carried interval. A write invalidates the set bits of the other
    cores at the end of the previous interval. The owner is the
    interval's writer (or the carried owner) until the first read miss
    by another core or eviction by itself; a read miss or a write while
    the owner is valid and another core logs a write-back.
    """
    m = len(lines)
    nl, ncores = carried.shape
    lo = stable_argsort(lines).astype(np.int32)
    L = lines[lo].astype(np.int32, copy=False)
    C = cores[lo]
    K = kinds[lo]
    is_w = K == OP_WRITE
    first = np.ones(m, dtype=bool)
    first[1:] = L[1:] != L[:-1]
    opens = is_w | first
    g = np.cumsum(opens, dtype=np.int32)
    g -= 1
    gstart = np.flatnonzero(opens).astype(np.int32)
    del opens
    ng = len(gstart)
    # An interval opened by a line's first op that is not a write is
    # the carried one; otherwise the writer owns it.
    carried_g = ~is_w[gstart]
    own_g = np.where(carried_g, owners0[L[gstart]], C[gstart])
    own = own_g[g]
    kill = (own >= 0) & (((K == OP_READ) & (C != own))
                         | ((K == OP_EVICT) & (C == own)))
    del own
    kp = np.flatnonzero(kill)
    del kill
    killed_g = np.zeros(ng, dtype=bool)
    killed_g[g[kp]] = True
    firstk = kp[np.append(True, g[kp[1:]] != g[kp[:-1]])] if len(kp) \
        else kp
    del kp
    wb_r = firstk[K[firstk] == OP_READ]
    del firstk
    # The interval a write closes: the one before it on its line, or
    # the line's carried entry when the write is the line's first op.
    wi = np.flatnonzero(is_w)
    wfirst = first[wi]
    pg = g[wi] - 1
    pg[wfirst] = 0
    prev_owner = np.where(wfirst, owners0[L[wi]], own_g[pg])
    prev_alive = (prev_owner >= 0) & ~(killed_g[pg] & ~wfirst)
    wb_w = prev_alive & (prev_owner != C[wi])
    del prev_owner, prev_alive

    # Each core's last op per interval: the line order sorted stably by
    # core is (core, line, time), so a core's next op in the interval
    # is the next position there.
    lc = stable_argsort(C)
    Cc = C[lc]
    same = Cc[1:] == Cc[:-1]
    del Cc
    gc = g[lc]
    same &= gc[1:] == gc[:-1]
    del gc
    last_c = np.ones(m, dtype=bool)
    np.logical_not(same, out=last_c[:-1])
    del same
    last = np.empty(m, dtype=bool)
    last[lc] = last_c
    del lc, last_c
    sets = last
    sets &= K != OP_EVICT
    del last, K

    # Bits at each interval's end, counted for the write that opens the
    # next one: the set last ops of the other cores...
    nxt_writer = np.full(ng, -1, dtype=np.int32)
    after = gstart[1:]
    cont = is_w[after] & ~first[after]
    nxt_writer[:-1][cont] = C[after[cont]]
    del after, cont, is_w
    counted = sets & (C != nxt_writer[g])
    cnt = np.bincount(g[counted], minlength=ng)
    del counted, nxt_writer
    inv = np.where(wfirst, 0, cnt[pg])
    del cnt
    # ...and, when the interval is the carried one, the carried bits of
    # the cores with no op there.
    seen = np.zeros((nl, ncores), dtype=bool)
    in_c = carried_g[g]
    seen[L[in_c], C[in_c]] = True
    del in_c
    stale = carried & ~seen
    del seen
    closes = wfirst.copy()
    closes[~wfirst] = carried_g[pg[~wfirst]]
    ci = np.flatnonzero(closes)
    rows = stale[L[wi[ci]]]
    rows[np.arange(len(ci)), C[wi[ci]]] = False
    inv[ci] += rows.sum(axis=1)
    del rows, ci, closes

    codes = np.zeros(m, dtype=np.int32)
    codes[lo[wi]] = 2 * inv + wb_w
    codes[lo[wb_r]] = 1
    del lo, wi, wb_r, inv, wb_w

    # End state: each line's last interval.
    line_first = np.flatnonzero(first)
    del first
    lids = L[line_first]
    last_g = g[np.append(line_first[1:], m) - 1]
    in_last = np.zeros(ng, dtype=bool)
    in_last[last_g] = True
    tail = sets & in_last[g]
    del sets, g
    end = np.zeros((nl, ncores), dtype=bool)
    end[L[tail], C[tail]] = True
    keep_stale = np.zeros(nl, dtype=bool)
    keep_stale[lids] = carried_g[last_g]
    end |= stale & keep_stale[:, None]
    owners = np.full(nl, -1, dtype=np.int64)
    owners[lids] = np.where(killed_g[last_g], -1, own_g[last_g])
    return codes, end, owners


def prefetch_walk(heads: List[List[int]], nexts: List[int],
                  cores: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """:meth:`StreamDetector.observe` per core over a miss stream.

    ``heads``/``nexts`` are the detector's per-core head lists and
    round-robin pointers, updated in place. Returns the prefetch-hit
    flag of each (core, line), in stream order. Each core's misses walk
    on their own, in order: a line matching some head + 1 advances the
    first such head, any other line replaces the round-robin head.
    """
    n = len(lines)
    hit = np.zeros(n, dtype=bool)
    if not n:
        return hit
    order = stable_argsort(cores)
    oc = cores[order]
    bounds = np.concatenate(
        [[0], np.flatnonzero(oc[1:] != oc[:-1]) + 1, [n]]).tolist()
    num = len(heads[0])
    hits = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        core = int(oc[lo])
        h = heads[core]
        nx = nexts[core]
        index = h.index
        i = lo
        # One core's lines at a time as Python ints.
        for x in lines[order[lo:hi]].tolist():
            p = x - 1
            if p in h:
                h[index(p)] = x
                hits.append(i)
            else:
                h[nx] = x
                nx += 1
                if nx == num:
                    nx = 0
            i += 1
        nexts[core] = nx
    hit[order[hits]] = True
    return hit
