"""Negative sampling strategies over batches of a dynamic graph.

Implements two widely used baselines (random destination replacement,
historical pair reuse) and the domain-informed strategies: sender and
receiver replacement, future-time probes for pairs that are known to
repeat, and negative self-loops drawn from nodes that have never posted
to themselves. ``sample_dins`` chains them per batch and tops the batch
up with observed future recurrences of its pairs (positive
enhancement).

Every strategy runs on :class:`_Run`, a run of consecutive batches
sampled together: the one-batch functions are runs of one batch, and
:func:`sample_batches` cuts a graph into runs of about ``RUN_EDGES``
(16,384) edges. Each batch keeps its own generator and its own order of
draws, so a batch's samples do not depend on the run it was sampled in.
A consumer pulling batches one by one waits once per run, for all of
its batches, and then takes the rest without sampling work.
Evaluation draws its replaced senders and receivers and its negative
loops through the same :class:`_Run`, as a run of one batch: there is
one implementation of each mechanism.

A :class:`SampleSet` holds one batch's samples as columns: ``src``,
``dst``, ``t`` and a ``code`` into :data:`VOCABULARY`, from which the
category and the label follow. Its ``samples`` view lists them as
:class:`Sample` tuples, built once and only when read. A batch is
[observed | a block per edge | loops | enhancement], each edge's block
its sender, receiver or historical, then temporal negatives; one pass
places every mechanism's part of a run there.

All strategies are pure functions of ``(batch, graph, config, rng)``:
they never mutate the graph, and every emitted negative is checked to
be absent from the edge multiset at its timestamp. Draws that cannot be
satisfied within ``RETRY_CAP`` attempts are dropped and tallied, not
raised. Feed each batch the substream from :func:`batch_rng` so batches
can be sampled independently (even concurrently) and merged in batch
order with reproducible results. Draws are dins' own mapping of PCG64 raw
output (:class:`_Replay`), which NumPy keeps stable with SeedSequence: the
one-batch functions take any PCG64 generator, consume its raw outputs and
leave its waiting half as that mapping leaves it.
Replacement, historical and loop retries are checked draws: ``_Replay.ints``
redraws a value that forms an edge as it redraws one that Lemire's method
rejects, for every batch of a run at once. Temporal retries are rounds per
edge through ``_Replay.integers``, as their cap counts rounds.
"""

from __future__ import annotations

import gc
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterator, NamedTuple

import numpy as np

from .config import _M32, VALID_LOOP_POOL, SamplerConfig, derive_rng, derive_rngs
from .graph import Batch, DynamicGraph, HistoryIndex

RETRY_CAP = 32     # attempts before a rejection loop gives up and tallies a shortfall

# sample labels
POS = "pos"
NEG = "neg"

# sample categories (generation mechanism)
OBSERVED = "observed"
RANDOM_RECEIVER = "random_receiver"
RANDOM_SENDER = "random_sender"
HISTORICAL = "historical"
TEMPORAL = "temporal"
NEGATIVE_LOOP = "negative_loop"
POSITIVE_ENHANCEMENT = "positive_enhancement"

CATEGORIES = (OBSERVED, RANDOM_RECEIVER, RANDOM_SENDER, HISTORICAL,
              TEMPORAL, NEGATIVE_LOOP, POSITIVE_ENHANCEMENT)

# categories only the evaluation draws: a self-loop, and the same pair
# probed 72 / 144 / 288 bins later
LOOP = "loop"
H6 = "h6"
H12 = "h12"
H24 = "h24"

# every category a sample can have; a SampleSet's code indexes it
VOCABULARY = CATEGORIES + (LOOP, H6, H12, H24)

_CODE = {c: i for i, c in enumerate(VOCABULARY)}
_CATEGORY_OF = np.array(VOCABULARY, dtype=object)
_LABEL_OF = np.array([POS if c in (OBSERVED, POSITIVE_ENHANCEMENT) else NEG
                      for c in VOCABULARY], dtype=object)


class Sample(NamedTuple):
    src: int
    dst: int
    t: int
    label: str
    category: str


# Sample from one (src, dst, t, label, category) tuple, without the
# keyword handling of the generated constructor.
_new_sample = partial(tuple.__new__, Sample)


@dataclass
class SampleSet:
    """Ordered samples produced from one batch, plus bookkeeping tallies.

    The samples are columns: ``src``, ``dst``, ``t`` (int64) and
    ``code`` (uint8), the index of each sample's category in
    :data:`VOCABULARY`.

    Tally keys: ``skipped`` (random or historical baseline failures),
    ``sender_skipped`` / ``receiver_skipped``, ``temporal_shortfall``,
    ``loop_shortfall``, ``historical_fallback``.
    """

    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray
    code: np.ndarray
    origin_batch: int = 0
    tallies: Counter = field(default_factory=Counter)

    @classmethod
    def of(cls, src, dst, t, category: str, origin_batch: int = 0,
           tallies: Counter | None = None) -> "SampleSet":
        """Samples that all have one category."""
        src, dst, t = (np.asarray(a, dtype=np.int64) for a in (src, dst, t))
        return cls(src, dst, t, np.full(src.size, _CODE[category], dtype=np.uint8),
                   origin_batch, Counter() if tallies is None else tallies)

    def __len__(self) -> int:
        return self.code.size

    def rows(self) -> Iterator[tuple]:
        """(src, dst, t, label, category) of each sample, as Python values."""
        return zip(self.src.tolist(), self.dst.tolist(), self.t.tolist(),
                   _LABEL_OF[self.code].tolist(), _CATEGORY_OF[self.code].tolist())

    @cached_property
    def samples(self) -> list[Sample]:
        """The samples as :class:`Sample` tuples, built on first read.

        The cyclic collector is paused while the list fills: samples are
        tracked tuples that never form cycles, and a collection during the
        fill would move the whole batch to the oldest generation, whose full
        collections then cost more than making the samples.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return list(map(_new_sample, self.rows()))
        finally:
            if enabled:
                gc.enable()

    def by_category(self) -> Counter:
        counts = np.bincount(self.code, minlength=len(VOCABULARY)).tolist()
        return Counter({c: n for c, n in zip(VOCABULARY, counts) if n})


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """The dedicated random substream for one batch."""
    return derive_rng(seed, batch_index)


# -- random draws --------------------------------------------------------------

# Edges that sample_batches samples together as one run of batches; bounds
# the run's arrays whatever the size of the graph. Larger runs mean fewer
# array passes and denser sorted probes into the pair keys: sampling 1000
# batches of k=1000 from a million-edge graph took a median 2.05 / 1.69 /
# 1.55 / 1.44 s at 4096 / 8192 / 16384 / 32768 edges (2 vCPU Xeon, NumPy
# 2.4). Past 16384 the gain is small, while a run's arrays and the wait
# for its first batch keep growing with it.
RUN_EDGES = 1 << 14
# Entries that one array pass over a run's windows or later occurrences may
# hold at once; pairs that fill whole windows would otherwise make it grow
# with the square of the run's size.
_BUDGET = 1 << 18


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal values (sorted input)."""
    first = np.ones(groups.size, dtype=bool)
    np.not_equal(groups[1:], groups[:-1], out=first[1:])
    start = np.flatnonzero(first)
    return np.arange(groups.size) - np.repeat(start, np.diff(start, append=groups.size))


class _Replay:
    """dins' draws, defined on the raw output of PCG64 generators.

    ``ints`` draws, per batch ``b`` and in segment order, ``counts[b, s]``
    integers from ``[0, highs[b, s])`` (at most 2**32 values); ``uniforms``
    draws ``counts[b]`` floats from [0, 1) per batch; both return the
    values in batch order. ``integers`` makes ``size`` draws from [lo, hi)
    for batch ``b``. A range of up to 2**32 values maps one 32-bit half of
    an output by Lemire's multiply-and-reject (the low half first; the high
    half, ``half``, waits in the PCG64 state for the next such draw while
    ``has``); a wider one maps whole outputs by 64-bit Lemire, and one
    value none; a uniform is the top 53 bits of an output over 2**53. This
    is what NumPy 2.4's ``Generator.integers`` and ``random`` do, which
    NumPy does not promise to keep. A run draws with a few array passes.

    With ``check``, ``ints`` draws ``counts[b, 0]`` slots per batch, one
    after another as calls would, each until a value stands: in phase
    ``p = 0, 1, ...``, ``tries[p]`` attempts draw from ``[0, highs[i, p])``
    for slot ``i`` (none where that is 1, offering 0, or less, failing the
    attempt), and a value stands once ``check(i, p, value)`` accepts it.
    It returns the values, -1 where no attempt stood, and the attempt
    each slot ended on. A refused value is redrawn like one that Lemire's
    method rejects.
    """

    def __init__(self, bitgens: list, hint: np.ndarray):
        self.bitgens = bitgens
        self._join([bg.random_raw(h) for bg, h in zip(bitgens, hint.tolist())])
        self.pos = [0] * len(bitgens)      # next unread output of each batch
        self.has, self.half = [0] * len(bitgens), [0] * len(bitgens)   # as if fresh

    @classmethod
    def of(cls, rng) -> "_Replay":
        """The replay of one caller's Generator; it reads outputs only as it draws."""
        bg = getattr(rng, "bit_generator", None)
        if not isinstance(bg, np.random.PCG64):
            raise TypeError(f"samplers draw from PCG64, not {type(bg or rng).__name__}; use "
                            "np.random.default_rng(seed) or dins.batch_rng(seed, batch)")
        draws, state = cls([bg], np.zeros(1, dtype=np.int64)), bg.state
        draws.has, draws.half = [state["has_uint32"]], [state["uinteger"]]
        return draws

    def settle(self) -> None:
        """Give back the outputs read but not used, then set the waiting half."""
        for b, bg in enumerate(self.bitgens):
            state = bg.advance(self.pos[b] - self.size_l[b]).state
            state["has_uint32"], state["uinteger"] = self.has[b], self.half[b]
            bg.state = state

    def _join(self, parts: list[np.ndarray]) -> None:
        sizes = np.array([p.size for p in parts], dtype=np.int64)
        self.flat = np.concatenate(parts)
        self.off = np.cumsum(sizes) - sizes
        self.off_l, self.size_l = self.off.tolist(), sizes.tolist()

    def _reserve(self, needed: np.ndarray) -> None:
        """Read more outputs for every batch that needs more than it has."""
        short = np.flatnonzero(needed > np.array(self.size_l)).tolist()
        if short:
            parts = [self.flat[off:off + size] for off, size in zip(self.off_l, self.size_l)]
            for b in short:
                more = max(int(needed[b]) - self.size_l[b], self.size_l[b])
                parts[b] = np.concatenate([parts[b], self.bitgens[b].random_raw(more)])
            self._join(parts)

    def integers(self, b: int, lo: int, hi: int, size: int) -> list[int]:
        w = hi - lo
        if w == 1:
            return [lo] * size
        if w > 0x100000000:
            return self._wide(b, lo, w, size)
        threshold = (0x100000000 - w) % w
        out: list[int] = []
        has, half, i = self.has[b], self.half[b], self.pos[b]
        while len(out) < size:
            if has:
                x, has = half, 0
            else:
                if i == self.size_l[b]:
                    self._reserve(np.where(np.arange(len(self.pos)) == b, i + size, 0))
                word = int(self.flat[self.off_l[b] + i])
                i += 1
                x, half, has = word & _M32, word >> 32, 1
            m = x * w
            if m & _M32 >= threshold:
                out.append(lo + (m >> 32))
        self.has[b], self.half[b], self.pos[b] = has, half, i
        return out

    def _wide(self, b: int, lo: int, w: int, size: int) -> list[int]:
        """64-bit Lemire on whole outputs, which leave the waiting half alone."""
        out: list[int] = []
        while len(out) < size:
            self._reserve(np.where(np.arange(len(self.pos)) == b, self.pos[b] + size, 0))
            self.pos[b] += 1
            m = int(self.flat[self.off_l[b] + self.pos[b] - 1]) * w
            if m & 0xFFFFFFFFFFFFFFFF >= (2**64 - w) % w:
                out.append(lo + (m >> 64))
        return out

    def ints(self, counts: np.ndarray, highs: np.ndarray, check=None, tries=(1,)):
        n_batches, n_seg = counts.shape
        per_value = counts.ravel()
        batch = np.repeat(np.repeat(np.arange(n_batches), n_seg), per_value)
        if check is None:
            highs = np.repeat(highs.ravel(), per_value)[:, None]
        vals = np.full(batch.size, -1, dtype=np.int64)
        tried = np.zeros(0 if check is None else batch.size, dtype=np.int64)  # plain: not counted
        todo = np.arange(batch.size)
        ends = np.cumsum(tries)
        while todo.size:
            todo = self._map(todo, batch, highs, check, ends, vals, tried)
        return vals if check is None else (vals, tried)

    def _map(self, todo: np.ndarray, batch: np.ndarray, highs: np.ndarray, check,
             ends: np.ndarray, vals: np.ndarray, tried: np.ndarray) -> np.ndarray:
        """Draw for each slot ``todo`` (of ascending ``batch``); return those left.

        Phase ``p`` of a slot makes its attempts up to ``ends[p]``. A phase
        whose high is 1 or less takes no output and settles first: a high of
        1 offers 0 to every attempt, a lower one fails them all. Otherwise a
        batch's slots map one half each, in order; once a batch's first slot
        has been refused, each of its slots maps a band of ``drift + 1``
        halves instead, for wherever the slots before it end, so one round
        settles a run of refusals. From its first slot on, a batch keeps its
        slots through the first that its halves leave open, by a Lemire
        rejection or a refusal with attempts to spare; the halves up to
        there are used up, and the later slots draw again, with the open one.
        """
        p = 0 if check is None else ends.searchsorted(tried[todo], side="right")
        h = highs[todo, p]
        free = np.flatnonzero(h <= 1)
        if free.size:
            p = p + np.zeros(todo.size, dtype=np.int64)
            settled = np.zeros(todo.size, dtype=bool)
            while free.size:
                i = todo[free]
                ok = h[free] == 1
                if check is not None:
                    ok[ok] = check(i[ok], p[free[ok]], np.zeros(int(ok.sum()), dtype=np.int64))
                vals[i[ok]] = 0
                tried[i[~ok]] = ends[p[free[~ok]]]
                p[free] += ~ok
                settled[free] = ok | (p[free] == ends.size)
                free = free[~settled[free]]
                h[free] = highs[todo[free], p[free]]
                free = free[h[free] <= 1]
            todo, p, h = todo[~settled], p[~settled], h[~settled]
            if not todo.size:
                return todo
        ub = batch[todo]
        rank = _rank_in_group(ub)
        drift = np.zeros(len(self.pos), dtype=np.int64)    # places a batch's slots may start late
        later = todo[:0]
        if check is not None:          # about 4096 halves a round, at most 512 a batch
            per = max(4096 // max(int(np.count_nonzero(rank == 0)), 8), 2)
            room = np.full(drift.size, per)
            head = ub[(rank == 0) & (tried[todo] > 0)]
            drift[head] = math.isqrt(2 * per) - 1
            room[head] = per // (drift[head] + 1)
            near = rank < room[ub]
            later = todo[~near]
            todo, p, h, ub, rank = todo[near], p[near], h[near], ub[near], rank[near]
        ev = slice(None)                       # the slot of each half mapped
        eb, at, hh = ub, rank, h
        if drift.any():
            w = drift[ub] + 1
            first = np.cumsum(w) - w
            ev = np.repeat(np.arange(todo.size), w)
            q = np.arange(ev.size) - first[ev]         # how late the slot starts there
            eb, at, hh = ub[ev], rank[ev] + q, h[ev]
        slots = np.bincount(ub, minlength=drift.size)
        reach = np.where(slots > 0, slots + drift, 0)
        pos, has, half = np.array(self.pos), np.array(self.has), np.array(self.half)
        waiting = (has == 1) & (reach > 0)
        self._reserve(pos + (reach - waiting + 1) // 2)
        j = at - waiting[eb]
        x = np.empty(eb.size, dtype=np.uint64)
        wt = j < 0
        x[wt] = half[eb[wt]]
        f = ~wt
        jf = j[f]
        words = self.flat[self.off[eb[f]] + pos[eb[f]] + jf // 2]
        x[f] = (words >> ((jf & 1) * 32).astype(np.uint64)) & _M32
        hh = hh.astype(np.uint64)
        m = x * hh
        v = (m >> 32).astype(np.int64)
        fair = (m & _M32) >= (0x100000000 - hh) % hh     # Lemire keeps the value
        ok = fair.copy()
        if check is not None:
            ok[fair] = check(todo[ev][fair], p[ev][fair], v[fair])
            left = ends[p] - tried[todo]       # attempts left in each slot's phase
            last = p == ends.size - 1
        if drift.any():
            # from each half as its start, where its slot ends: the next
            # standing half, or the one that spends the attempts left
            n = ev.size
            stop = (first + w)[ev]
            seen = np.cumsum(fair)
            before = seen - fair
            end = np.minimum(np.minimum.accumulate(np.where(ok, np.arange(n), n)[::-1])[::-1],
                             seen.searchsorted(before + left[ev]))
            z = np.minimum(end, stop - 1)      # the last half the slot takes
            done = (end < stop) & (ok[z] | last[ev])
            nxt = np.where(done, q[z], w[ev])  # where the next slot starts; w: not reached
            step = 1                           # compose each batch's steps by doubling
            while step <= rank.max():
                e = np.flatnonzero(rank[ev] >= step)
                inner = nxt[first[ev[e] - step] + q[e]]
                cont = inner < w[ev[e]]
                nxt[e] = np.where(cont, nxt[first[ev[e]] + np.minimum(inner, w[ev[e]] - 1)],
                                  inner)
                step *= 2
            start = np.zeros(todo.size, dtype=np.int64)
            start[rank > 0] = nxt[first[np.flatnonzero(rank > 0) - 1]]
            reached = start < w
            e0 = first + np.minimum(start, w - 1)
            z, done, spent = z[e0], done[e0], seen[z[e0]] - before[e0]
            used = np.bincount(ub[reached], (q[z] - start + 1)[reached], minlength=drift.size)
        else:                                  # one half each
            z, spent = ev, fair
            done = ok if check is None else ok | (fair & (left == 1) & last)
            cut = np.flatnonzero(~done)
            stop = slots.copy()                # each batch's open slot
            cb, fc = np.unique(ub[cut], return_index=True)
            stop[cb] = rank[cut[fc]]
            reached = rank <= stop[ub]
            used = np.minimum(stop + 1, slots)
        used = used.astype(np.int64)
        fresh = used - waiting               # halves from outputs not read before
        new_pos = pos + (fresh + 1) // 2
        new_half = half.copy()
        took = np.flatnonzero(fresh > 0)     # their last output's high half is set aside
        new_half[took] = self.flat[self.off[took] + new_pos[took] - 1] >> 32
        self.pos, self.half = new_pos.tolist(), new_half.tolist()
        self.has = np.where(used > 0, fresh % 2, has).tolist()
        stood = reached & ok[z]
        vals[todo[stood]] = v[z][stood]
        rest = todo[~(reached & done)]
        if check is None:
            return rest
        tried[todo[reached]] += spent[reached].astype(np.int64) - stood[reached]
        return np.sort(np.concatenate([rest, later]))

    def uniforms(self, counts: np.ndarray) -> np.ndarray:
        pos = np.array(self.pos)
        self._reserve(pos + counts)
        batch = np.repeat(np.arange(counts.size), counts)
        words = self.flat[self.off[batch] + pos[batch] + _rank_in_group(batch)]
        self.pos = (pos + counts).tolist()
        return (words >> 11) * (1.0 / 9007199254740992.0)


def _earliest(edge_by_pair: np.ndarray, group: np.ndarray, starts: np.ndarray,
              counts: np.ndarray, k: int, m: int) -> tuple[np.ndarray, ...]:
    """Per group, the k smallest of each row's ``counts`` positions from ``starts``.

    Positions lie in [0, m); ``group`` ascends.
    """
    rows = np.repeat(np.arange(counts.size), counts)
    key = np.sort(group[rows] * m + edge_by_pair[starts[rows] + _rank_in_group(rows)])
    grp = key // m
    slot = _rank_in_group(grp)
    keep = slot < k
    return grp[keep], slot[keep], key[keep] % m


# -- runs of batches -------------------------------------------------------


class _Run:
    """Consecutive batches sampled together, each on its own generator.

    Every batch draws exactly what it would draw alone, in the same
    order: sender draws and retries, receiver draws and retries, the
    temporal uniforms and retries, loop picks and retries. Retries are
    checked draws for the whole run at once, save the temporal ones,
    rounds per edge in edge order; the work that does not draw
    (membership checks, window occupancy, distinct timestamps,
    enhancement) is done once for the whole run with array operations.
    Batches must be non-empty and sorted by bin, as
    :func:`dins.graph.batches` cuts them. Negatives are checked against
    ``index``, the graph's own history unless given; evaluation draws its
    replacements and loops as a one-batch run checked against the whole
    split, whose edges need not be sorted for those two mechanisms.
    """

    def __init__(self, graph: DynamicGraph, draws: _Replay, src: np.ndarray,
                 dst: np.ndarray, t: np.ndarray, sizes, indices: list[int],
                 index: HistoryIndex | None = None):
        self.graph = graph
        self.idx = graph.history if index is None else index
        self.draws = draws
        self.indices = indices
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.first = np.cumsum(self.sizes) - self.sizes     # run row of each batch
        self.src, self.dst, self.t = (np.asarray(a, dtype=np.int64) for a in (src, dst, t))
        self.bid = np.repeat(np.arange(self.sizes.size), self.sizes)
        self.t_min = self.t[self.first]
        self.t_max = self.t[self.first + self.sizes - 1]

    @cached_property
    def rows(self) -> np.ndarray:
        """The index row of each edge's pair, resolved once per run."""
        return self.idx.pair_rows(self.src, self.dst)

    def _replaced(self, e: np.ndarray, x: np.ndarray, replace_dst: bool) -> tuple:
        """(src, dst, t) of edges ``e`` with the receiver (or sender) replaced by
        the draw ``x`` from [0, n - 2), [0, n - 1) for a loop edge, unfolded past
        the excluded ids to stay uniform."""
        u, v = self.src[e], self.dst[e]
        x = x + (x >= np.minimum(u, v))
        x = x + ((x >= np.maximum(u, v)) & (u != v))
        return (u, x, self.t[e]) if replace_dst else (x, v, self.t[e])

    def _draw_free(self, batch: np.ndarray, highs: np.ndarray, candidate,
                   tries: tuple) -> tuple:
        """Slots drawn in order as batch ``batch[i]`` (ascending), each until its
        candidate is not an edge: in phase ``p``, ``tries[p]`` attempts of slot
        ``i`` each draw ``x`` from [0, highs[i, p]) and propose
        ``candidate(i, p, x)``, a (src, dst, t). Returns each slot's (src, dst),
        -1 where every attempt failed, and the attempt it ended on."""
        x, tried = self.draws.ints(
            np.bincount(batch, minlength=self.sizes.size)[:, None], highs,
            lambda i, p, x: ~self.idx.occurred(*candidate(i, p, x)), tries)
        out = np.full((2, x.size), -1, dtype=np.int64)
        ok = np.flatnonzero(x >= 0)
        phase = np.cumsum(tries).searchsorted(tried[ok], side="right")
        out[:, ok] = candidate(ok, phase, x[ok])[:2]
        return out[0], out[1], tried

    def replacements(self, replace_dst: bool) -> np.ndarray:
        """A replaced receiver (or sender) per edge, -1 where none was found.

        Each batch draws for its loop edges, which exclude one node, then for
        the others, which exclude two; then it redraws, in edge order, each
        draw that forms an edge, up to ``RETRY_CAP`` times.
        """
        src, dst, bid, n = self.src, self.dst, self.bid, self.graph.n
        same = src == dst
        order = np.argsort(bid * 2 + ~same, kind="stable")
        n_loops = np.bincount(bid[same], minlength=self.sizes.size)
        counts = np.stack([n_loops * (n >= 2), (self.sizes - n_loops) * (n >= 3)], axis=1)
        x = self.draws.ints(counts, np.broadcast_to(np.array([n - 1, n - 2]), counts.shape))
        rows = order[np.where(same[order], n >= 2, n >= 3)]
        first = self._replaced(rows, x, replace_dst)
        r = np.full(src.size, -1, dtype=np.int64)
        r[rows] = first[replace_dst]
        hit = np.sort(rows[self.idx.occurred(*first)])
        again = self._draw_free(bid[hit], (n - 1 - ~same[hit])[:, None],
                                lambda i, p, x: self._replaced(hit[i], x, replace_dst),
                                (RETRY_CAP,))
        r[hit] = again[replace_dst]
        return r

    def temporal(self, q: int, t_f: int) -> tuple[np.ndarray, ...]:
        """Up to q distinct free bins in [t, min(t + t_f, batch max)] per edge.

        Returns (edge, slot, bin) of every emitted bin. Where at most q
        bins are free they are all emitted, ascending; otherwise they
        are rejection-sampled: first from the q pre-drawn uniforms of
        the edge, then, for edges still short, in rounds of integer
        draws under the retry cap.
        """
        idx, rows, t = self.idx, self.rows, self.t
        u01 = self.draws.uniforms(q * self.sizes)
        hi = t + np.minimum(t_f, self.t_max[self.bid] - t)    # t + t_f may not fit int64
        width = hi - t + 1
        starts, stops = idx.window_bounds(None, None, t, hi, rows=rows)
        # rejection is certain where more than q bins stay free even if
        # every occurrence in the window takes a bin of its own
        rejection = width - (stops - starts) > q
        edges, slots, bins = [], [], []
        # elsewhere list every bin of the window to count the free ones
        amb = np.flatnonzero(~rejection & (width > 0))
        ends = np.cumsum(width[amb])
        cuts = np.searchsorted(ends, np.arange(_BUDGET, ends[-1] if ends.size else 0, _BUDGET))
        for part in np.split(amb, cuts):
            e = np.repeat(part, width[part])
            tn = t[e] + _rank_in_group(e)
            free = ~idx.occurred(None, None, tn, rows=rows[e])
            avail = np.bincount(e[free], minlength=t.size)
            keep = free & (avail[e] <= q)
            edges.append(e[keep])
            slots.append(_rank_in_group(e[keep]))
            bins.append(tn[keep])
            rejection[part[avail[part] > q]] = True
        rej = np.flatnonzero(rejection)
        cand = t[rej, None] + (u01.reshape(-1, q)[rej] * width[rej, None]).astype(np.int64)
        taken = idx.occurred(None, None, cand.ravel(),
                             rows=np.repeat(rows[rej], q)).reshape(cand.shape)
        # a repeated candidate counts once, at its first draw
        order = np.argsort(cand, axis=1, kind="stable")
        ranked = np.take_along_axis(cand, order, axis=1)
        dup = np.zeros(cand.shape, dtype=bool)
        np.put_along_axis(dup, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1)
        acc = ~(taken | dup)
        rows, cols = np.nonzero(acc)
        edges.append(rej[rows])
        slots.append((np.cumsum(acc, axis=1) - 1)[rows, cols])
        bins.append(cand[rows, cols])
        short = np.flatnonzero(acc.sum(axis=1) < q)
        if short.size:
            for col, more in zip((edges, slots, bins), self._temporal_rounds(
                    rej[short], cand[short], acc[short], hi, starts, stops, q)):
                col.append(more)
        return np.concatenate(edges), np.concatenate(slots), np.concatenate(bins)

    def _temporal_rounds(self, edges, cand, acc, hi, starts, stops, q):
        """Retry rounds for the edges that phase one left short, in edge order.

        A round draws as many bins as the edge still needs and keeps the
        free, new ones. One set per piece of edges holds every taken bin
        (occupied, or drawn already) of every edge ``i`` in it, keyed
        ``i * span + (bin - t)``. The pieces are cut in edge order, so the
        draws keep their order, at about ``_BUDGET // 16`` bins that a set
        may hold (an edge's occupied bins plus ``q``). On the acceptance-1
        suite the rounds' peak memory was 2.9 MiB in pieces and 10.6 MiB
        with one set over a run of ``RUN_EDGES`` edges.
        """
        lo, top = self.t[edges], hi[edges] + 1
        span = int((top - lo).max())
        starts, stops = starts[edges], stops[edges]
        bid, need = self.bid[edges], q - acc.sum(axis=1)
        bins, integers = self.idx.bins_by_pair, self.draws.integers
        ends, step = np.cumsum(stops - starts + q), max(1, _BUDGET // 16)
        cuts = np.searchsorted(ends, np.arange(step, ends[-1], step)).tolist()
        out_e: list[int] = []
        out_slot: list[int] = []
        out_bin: list[int] = []
        for a, z in zip([0] + cuts, cuts + [edges.size]):
            rows = np.repeat(np.arange(a, z), stops[a:z] - starts[a:z])
            occupied = bins[starts[rows] + _rank_in_group(rows)]
            taken = set((rows * span + occupied - lo[rows]).tolist())
            r, c = np.nonzero(acc[a:z])
            taken.update(((r + a) * span + cand[r + a, c] - lo[r + a]).tolist())
            for i, (e, b, lo_i, top_i, need_i) in enumerate(zip(
                    edges[a:z].tolist(), bid[a:z].tolist(), lo[a:z].tolist(),
                    top[a:z].tolist(), need[a:z].tolist()), a):
                base = i * span - lo_i
                got: list[int] = []
                for _ in range(RETRY_CAP - 1):
                    for tn in integers(b, lo_i, top_i, need_i - len(got)):
                        if base + tn not in taken:
                            taken.add(base + tn)
                            got.append(tn)
                    if len(got) == need_i:
                        break
                out_e += [e] * len(got)
                out_slot += range(q - need_i, q - need_i + len(got))
                out_bin += got
        return (np.array(out_e, dtype=np.int64), np.array(out_slot, dtype=np.int64),
                np.array(out_bin, dtype=np.int64))

    def historical(self) -> tuple[np.ndarray, ...]:
        """A pair first seen before each edge's bin, else a replaced receiver.

        Per edge, in edge order: up to ``RETRY_CAP`` draws of an earlier pair,
        kept once it is not an edge at the bin; when there is none or
        every draw collides, up to ``RETRY_CAP`` receiver replacements.
        Returns each edge's (src, dst), -1 where the replacement failed
        too, and whether it fell back.
        """
        idx, n = self.idx, self.graph.n
        prior = idx.prior_pair_counts(self.t)
        pool = n - 1 - (self.src != self.dst)

        def candidate(i, p, x):
            s, d, t = self._replaced(i, x, True)
            s[p == 0], d[p == 0] = idx.prior_pairs(x[p == 0])
            return s, d, t

        s, d, tried = self._draw_free(self.bid, np.stack([prior, pool], axis=1), candidate,
                                      (RETRY_CAP, RETRY_CAP))
        return s, d, tried >= RETRY_CAP

    def loops(self, pool_mode: str) -> tuple[np.ndarray, ...]:
        """One negative self-loop per distinct bin of each batch.

        Returns (batch, slot, node, bin) of every emitted loop, in bin
        order, and each batch's shortfall.
        """
        idx, t, bid = self.idx, self.t, self.bid
        new = np.ones(t.size, dtype=bool)
        new[1:] = (t[1:] != t[:-1]) | (bid[1:] != bid[:-1])
        ts, tb = t[new], bid[new]
        n_ts = np.bincount(tb, minlength=self.sizes.size)
        if pool_mode == "batch":
            # one pool per batch: nodes without a loop before its first bin
            nodes = self.loop_picks(tb, self.t_min, ts)
        else:
            # the pool shrinks before each bin, so each bin draws until its pick stands
            totals = idx.loopless_counts(ts)

            def candidate(i, p, x):
                node = idx.loopless_picks(ts[i], x)
                return node, node, ts[i]

            nodes = self._draw_free(tb, totals[:, None], candidate, (1 + RETRY_CAP,))[0]
        ok = nodes >= 0
        tb = tb[ok]
        short = n_ts - np.bincount(tb, minlength=n_ts.size)
        return tb, _rank_in_group(tb), nodes[ok], ts[ok], short

    def loop_picks(self, group: np.ndarray, before: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """A self-loop node per row, -1 where none was found, drawn as batch
        ``group[i]`` (ascending) from the nodes with no loop strictly before
        its ``before``: all picks at once, then redraws, in row order, of
        those whose loop occurs at the row's bin ``ts``."""
        idx = self.idx
        totals = idx.loopless_counts(before)
        n_picks = np.bincount(group, minlength=before.size) * (totals > 0)
        ranks = self.draws.ints(n_picks[:, None], totals[:, None])
        nodes = np.full(ts.size, -1, dtype=np.int64)
        rows = np.flatnonzero(totals[group] > 0)
        nodes[rows] = idx.loopless_picks(before[group[rows]], ranks)
        hit = rows[idx.occurred(nodes[rows], nodes[rows], ts[rows])]

        def candidate(i, p, x):
            node = idx.loopless_picks(before[group[hit[i]]], x)
            return node, node, ts[hit[i]]

        nodes[hit] = self._draw_free(group[hit], totals[group[hit]][:, None], candidate,
                                     (RETRY_CAP,))[0]
        return nodes

    def enhancement(self, k: int) -> tuple[np.ndarray, ...]:
        """Per batch, the earliest k later edges whose pair occurs in the batch.

        "Later" means a bin strictly after the batch's last bin. Returns
        (batch, slot, edge position), in edge order within each batch.
        """
        # each batch's distinct pairs, keyed batch * m + row (a row is below the
        # graph's m edges); sorted, as np.unique took 20 times as long (16k keys)
        m = self.graph.m
        key = np.sort(self.bid * m + self.rows)
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        b, r = np.divmod(key[new], m)
        # the window runs to the graph's last bin: to the end of each block
        starts, stops = self.idx.window_bounds(None, None, self.t_max[b] + 1, None, rows=r)
        counts = np.minimum(stops - starts, k)
        by_pair = self.idx.edge_by_pair
        if counts.sum() <= _BUDGET:
            return _earliest(by_pair, b, starts, counts, k, m)
        cuts = np.searchsorted(b, np.arange(self.sizes.size + 1)).tolist()
        parts = [_earliest(by_pair, b[lo:hi], starts[lo:hi], counts[lo:hi], k, m)
                 for lo, hi in zip(cuts[:-1], cuts[1:])]
        return tuple(np.concatenate(cols) for cols in zip(*parts))


# strategy -> the mechanisms it runs, in the order they use the generator
_MECHANISMS = {
    "random": ("receiver",),
    "historical": ("historical",),
    "sender_receiver": ("sender", "receiver"),
    "temporal": ("temporal",),
    "loops": ("loops",),
    "dins": ("sender", "receiver", "temporal", "loops", "enhancement"),
    "enhancement": ("enhancement",),
}

def _sample_run(run: _Run, config: SamplerConfig, strategy: str, pool_mode: str = "batch",
                include_positives: bool = False) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Every sample of the run, packed: (src, dst, t) columns, category
    codes, each batch's end in them, and each batch's tallies.

    Each mechanism gives one part, ``(owner, slot, take, (src, dst, t),
    code)``, and its tallies: an edge's block owns sender, receiver,
    historical and temporal parts, a batch's section the others, ``slot``
    is a sample's place in its owner's share of the part, and the columns
    are gathered by ``take`` when placed (None: they are the samples').
    """
    if pool_mode not in VALID_LOOP_POOL:        # before any draw
        raise ValueError(f"unknown pool_mode {pool_mode!r}")
    mech = _MECHANISMS[strategy]
    n_batches, n_edges = run.sizes.size, run.t.size
    src, dst, t, bid = run.src, run.dst, run.t, run.bid
    # owner e is edge e's block, then come each batch's observed, loops and
    # enhancement sections
    observed, loops, enhanced = n_edges + np.arange(3 * n_batches).reshape(3, n_batches)
    parts, named = [], []      # (owner, slot, take, columns, code); (tally, per batch)

    def per_batch(e):
        return np.bincount(bid[e], minlength=n_batches)

    if "sender" in mech:
        r = run.replacements(False)
        e = np.flatnonzero(r >= 0)
        parts.append((e, 0, e, (r, dst, t), _CODE[RANDOM_SENDER]))
        named.append(("sender_skipped", run.sizes - per_batch(e)))
    if "receiver" in mech:
        r = run.replacements(True)
        e = np.flatnonzero(r >= 0)
        parts.append((e, 0, e, (src, r, t), _CODE[RANDOM_RECEIVER]))
        named.append(("skipped" if strategy == "random" else "receiver_skipped",
                      run.sizes - per_batch(e)))
    if "historical" in mech:
        s, d, fell = run.historical()
        e = np.flatnonzero(s >= 0)
        parts.append((e, 0, e, (s, d, t),
                      np.where(fell[e], _CODE[RANDOM_RECEIVER], _CODE[HISTORICAL])))
        named += [("skipped", run.sizes - per_batch(e)), ("historical_fallback", per_batch(fell))]
    if "temporal" in mech:
        e, slot, tbin = run.temporal(config.q, config.t_f)
        parts.append((e, slot, None, (src[e], dst[e], tbin), _CODE[TEMPORAL]))
        named.append(("temporal_shortfall", config.q * run.sizes - per_batch(e)))
    if "loops" in mech:
        b, slot, node, lbin, short = run.loops(pool_mode)
        parts.append((loops[b], slot, None, (node, node, lbin), _CODE[NEGATIVE_LOOP]))
        named.append(("loop_shortfall", short))
    if "enhancement" in mech:
        b, slot, pos = run.enhancement(config.k)
        g = run.graph
        parts.append((enhanced[b], slot, pos, (g.src, g.dst, g.t), _CODE[POSITIVE_ENHANCEMENT]))
    if include_positives:      # its own owners, so it goes last: not held through the draws
        parts.append((observed[bid], _rank_in_group(bid), None, (src, dst, t), _CODE[OBSERVED]))

    # counted and ranked after the draws, so as not to add to their peak:
    # ``place`` ranks the owners in run order
    counts = [np.bincount(p[0], minlength=n_edges + 3 * n_batches) for p in parts]
    size = sum(counts)                 # each owner's samples
    head = run.first + 3 * np.arange(n_batches)
    place = np.concatenate([np.arange(n_edges) + 3 * bid + 1, head,
                            head + run.sizes + 1, head + run.sizes + 2])
    ends = np.zeros_like(size)
    ends[place] = size
    ends = np.cumsum(ends)
    start = ends[place] - size     # where each owner's next part goes
    cols = np.empty((3, int(ends[-1])), dtype=np.int64)
    codes = np.empty(cols.shape[1], dtype=np.uint8)
    for (owner, slot, take, columns, code), count in zip(parts, counts):
        where = start[owner] + slot
        start += count
        for row, c in enumerate(columns):
            cols[row, where] = c if take is None else c[take]
        codes[where] = code
    named = [(name, v.tolist()) for name, v in named]
    tallies = [Counter({name: v[b] for name, v in named if v[b]}) for b in range(n_batches)]
    return cols, codes, ends[place[enhanced]].tolist(), tallies


def _sample_sets(indices: list[int], cols: np.ndarray, codes: np.ndarray,
                 ends: list[int], tallies: list) -> Iterator[SampleSet]:
    """The SampleSets of a packed run, each a slice of its columns."""
    lo = 0
    for index, hi, tally in zip(indices, ends, tallies):
        yield SampleSet(*cols[:, lo:hi], codes[lo:hi], index, tally)
        lo = hi


def _sample_one(strategy: str, batch: Batch, graph: DynamicGraph,
                config: SamplerConfig, rng, pool_mode: str = "batch") -> SampleSet:
    if len(batch) == 0:
        return SampleSet.of([], [], [], OBSERVED, batch.index)
    draws = None if rng is None else _Replay.of(rng)
    run = _Run(graph, draws, batch.src, batch.dst, batch.t, [len(batch)], [batch.index])
    (ss,) = _sample_sets(run.indices, *_sample_run(run, config, strategy, pool_mode))
    if draws is not None:
        draws.settle()
    return ss


# -- individual strategies -------------------------------------------------


def sample_random_baseline(batch: Batch, graph: DynamicGraph,
                           config: SamplerConfig, rng: np.random.Generator) -> SampleSet:
    """One negative per positive with the destination replaced at random.

    For each positive (u, v, t), draw r uniformly from V minus {u, v}
    and emit (u, r, t) once it is not an edge; give up after
    ``RETRY_CAP`` attempts and count the positive under
    ``skipped``.
    """
    return _sample_one("random", batch, graph, config, rng)


def sample_historical_baseline(batch: Batch, graph: DynamicGraph,
                               config: SamplerConfig, rng: np.random.Generator) -> SampleSet:
    """One negative per positive reusing a pair seen strictly earlier.

    For a positive at time t, draw (u', v') uniformly from the distinct
    directed pairs whose first occurrence is strictly before t, and emit
    (u', v', t) provided it is not itself an edge. When no prior pair
    exists (or every draw collides within the retry cap), fall back to
    the random baseline for that positive and count it under
    ``historical_fallback``.
    """
    return _sample_one("historical", batch, graph, config, rng)


def sample_sender_receiver(batch: Batch, graph: DynamicGraph,
                           config: SamplerConfig, rng: np.random.Generator) -> SampleSet:
    """Two negatives per positive: replaced sender, then replaced receiver.

    For each positive (u, v, t) emit (r_s, v, t) and (u, r_d, t) with
    r_s, r_d drawn uniformly from V minus {u, v}, re-drawn while the
    candidate triple is an edge. Skipped slots are tallied under
    ``sender_skipped`` / ``receiver_skipped``.
    """
    return _sample_one("sender_receiver", batch, graph, config, rng)


def sample_temporal(batch: Batch, graph: DynamicGraph,
                    config: SamplerConfig, rng: np.random.Generator) -> SampleSet:
    """Up to q same-pair negatives per positive at unused future bins.

    For each positive (u, v, t), future bins are drawn uniformly from
    [t, min(t + t_f, max bin of the batch)], pairwise distinct within
    the positive, and only at bins where (u, v) never occurs. Unfillable
    slots are counted under ``temporal_shortfall``, so
    emitted + shortfall == q per positive.
    """
    return _sample_one("temporal", batch, graph, config, rng)


def sample_negative_loops(batch: Batch, graph: DynamicGraph,
                          config: SamplerConfig, rng: np.random.Generator,
                          *, pool_mode: str = "batch") -> SampleSet:
    """One negative self-loop per distinct timestamp in the batch.

    Candidates come from the pool of nodes that have never formed a
    self-loop strictly before the batch's first timestamp (or before
    each timestamp with ``pool_mode="per-t"``); a draw is retried while
    (r, r, t) is an actual edge. An empty pool or exhausted retries add
    to ``loop_shortfall``.
    """
    return _sample_one("loops", batch, graph, config, rng, pool_mode)


def positive_enhancement(batch: Batch, graph: DynamicGraph, k: int) -> SampleSet:
    """Extra positives: future recurrences of the batch's pairs.

    Scans edges with bins strictly after the batch's last bin, in global
    edge order, and emits those whose directed pair occurred inside the
    batch, stopping after ``k``. Purely deterministic; no randomness.
    """
    if k <= 0:
        return SampleSet.of([], [], [], OBSERVED, batch.index)
    return _sample_one("enhancement", batch, graph, SamplerConfig(k=k), None)


def sample_dins(batch: Batch, graph: DynamicGraph, config: SamplerConfig,
                rng: np.random.Generator, *, pool_mode: str = "batch") -> SampleSet:
    """The combined per-batch pass chaining every targeted mechanism.

    Per positive (u, v, t), in batch order: a sender replacement, a
    receiver replacement, and up to q future-time negatives. Then one
    negative self-loop per distinct batch timestamp, and finally up to
    ``config.k`` positive-enhancement samples. With zero shortfalls a
    full batch of k' positives yields ``2*k' + q*k' + |timestamps|``
    negatives plus at most k extra positives.
    """
    return _sample_one("dins", batch, graph, config, rng, pool_mode)


STRATEGIES = {
    "random": sample_random_baseline,
    "historical": sample_historical_baseline,
    "sender_receiver": sample_sender_receiver,
    "temporal": sample_temporal,
    "loops": sample_negative_loops,
    "dins": sample_dins,
}


def sample_batches(graph: DynamicGraph, strategy: str, config: SamplerConfig,
                   *, pool_mode: str = "batch",
                   include_positives: bool = False) -> Iterator[SampleSet]:
    """Run one strategy over every batch with per-batch substreams.

    Yields one :class:`SampleSet` per batch, in batch order. With
    ``include_positives`` each set is prefixed by the batch's own edges
    as observed positives (useful when exporting training files).
    Batches are sampled in runs of about ``RUN_EDGES`` edges; batch
    ``b`` equals the one-batch strategy on ``batch_rng(config.seed, b)``,
    whatever the run size. The ``next()`` that starts a run samples all
    of it (16 batches at k=1000), so batch waits come in bursts: on a
    million-edge graph the median wait fell and the 99th percentile rose
    (0.22 -> 0.13 ms and 9.4 -> 23.3 ms against runs of 4096 edges).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"choose from {sorted(STRATEGIES)}")
    k, m = config.k, graph.m
    step = max(1, RUN_EDGES // k)
    # only temporal sampling draws q uniforms per edge; more is read on demand
    q = config.q if "temporal" in _MECHANISMS[strategy] else 0
    for first in range(0, (m + k - 1) // k, step):
        indices = list(range(first, min(first + step, (m + k - 1) // k)))
        lo, hi = first * k, min((indices[-1] + 1) * k, m)
        sizes = np.minimum(k, m - np.array(indices) * k)
        rngs = derive_rngs(config.seed, indices)          # batch_rng of each
        draws = _Replay([rng.bit_generator for rng in rngs], (q + 2) * sizes + 16)
        packed = _sample_run(_Run(graph, draws, graph.src[lo:hi], graph.dst[lo:hi],
                                  graph.t[lo:hi], sizes, indices),
                             config, strategy, pool_mode, include_positives)
        del draws, rngs     # only the packed samples stay alive while batches go out
        yield from _sample_sets(indices, *packed)
