"""Batched chain execution: many independent chains as one code matrix.

A :class:`ChainBatch` holds ``n_chains`` independent chains of the same
instance as a ``(chains, n)`` integer code matrix and advances *all* of
them per step with one vectorised conditional lookup: each resampled
node's weights are a row of its precomputed blanket table
(:class:`_BatchedTables`, built once per compiled engine), selected by a
strided index sum over the codes of its Markov blanket -- one batched
computation instead of a Python loop per chain.  This amortises the
interpreter overhead of the serial chain across the batch, which is where
E6/E7/E12-style experiments spend their time.

The *dynamics* advanced by a batch is a :class:`~repro.sampling.kernels.ChainKernel`
(Glauber, LubyGlauber, JVV rejection, sequential scan, or any registered
kernel): the batch owns the shared execution state (code matrix, per-chain
generators and their uniforms buffer, the model's conditional tables,
kernel scratch space) and :meth:`ChainBatch.advance` hands it to the kernel's
``batched_advance``.

Determinism contract
--------------------

Every chain owns its own :class:`numpy.random.Generator`.  The per-chain
draw pattern reproduces the serial samplers exactly:

* Glauber draws ``integers(0, free_count, size=chunk)`` then
  ``random(chunk)`` per RNG chunk, with the serial chunk sizes;
* LubyGlauber draws ``random(n_free)`` priorities then
  ``random(n_selected)`` update points per round.  These are served from
  one ``(chains, width)`` buffer of every chain's uniforms
  (:class:`ChainUniforms`), which is safe because NumPy generators are
  *prefix-consistent*: one large ``random(k)`` call yields the same stream
  as any sequence of smaller calls;
* the scan kernels (JVV, sequential) draw ``random(chunk)`` proposal
  points (then ``random(chunk)`` acceptance points for gated kernels) per
  chunk.

All floating-point reductions (factor products, cumulative weights, totals)
run in the same order as the serial inner loop, so chain ``c`` of a batch is
**bit-identical** to the serial chain run with ``seed=seeds[c]`` for the same
number of steps/rounds (matched against a single ``advance`` call; splitting
one serial run across several calls changes the chunk boundaries and hence
the stream -- except for LubyGlauber, whose buffered doubles carry over).
The default seeding convention spawns per-chain ``SeedSequence`` streams
from one root seed (:func:`chain_seed_sequences`), the standard way to get
statistically independent chains from a single seed.  A batch derives
every chain's PCG64 seed words in one vectorised pass of numpy's
``SeedSequence`` hash (:func:`chain_generators`) instead of building one
``SeedSequence`` and one ``default_rng`` per chain; the generators equal
``default_rng(seeds[c])`` bit for bit.
"""

from __future__ import annotations

import time
from collections.abc import Sequence as SequenceABC
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro import obs
from repro.gibbs.instance import SamplingInstance
from repro.sampling.glauber import greedy_start_codes
from repro.sampling.kernels import (
    RNG_CHUNK,
    ChainKernel,
    resolve_kernel,
    stuck_node_error,
)

Node = Hashable
Value = Hashable

Seed = Union[int, np.random.SeedSequence]

#: Histogram boundaries for chain throughput (steps/second): decades 1..1e9.
_THROUGHPUT_BUCKETS = tuple(10.0**i for i in range(10))


#: numpy's ``SeedSequence`` hash constants and default pool size
#: (``numpy/random/bit_generator.pyx``), fixed by its stream-compatibility
#: policy.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _int_words(value) -> List[int]:
    """numpy's entropy words of a non-negative integer: uint32, least significant first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"a root seed must be non-negative, not {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _multipliers(start: int, factor: int, count: int):
    """A ``SeedSequence`` hash multiplier before and after each of its next
    ``count`` steps, as uint32 arrays.  It evolves the same way whatever
    the data, so every seed shares it."""
    before, after = [], []
    for _ in range(count):
        before.append(start)
        start = start * factor & _MASK32
        after.append(start)
    return np.array(before, dtype=np.uint32), np.array(after, dtype=np.uint32)


def _child_pools(prefix: List[int], children: np.ndarray) -> np.ndarray:
    """The ``SeedSequence`` pools of seeds whose entropy words are ``prefix``
    then one word of ``children`` each.

    numpy's ``mix_entropy``: the shared ``prefix`` (at least the pool size
    long) is hashed once in Python ints, and the last word then mixes into
    every pool word of every child in one ``(children, pool_size)`` step.
    """
    multiplier = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal multiplier
        value ^= multiplier
        multiplier = multiplier * _MULT_A & _MASK32
        value = value * multiplier & _MASK32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in prefix[:_POOL_SIZE]]
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    for word in prefix[_POOL_SIZE:]:
        for target in range(_POOL_SIZE):
            pool[target] = mix(pool[target], hashmix(word))
    before, after = _multipliers(multiplier, _MULT_A, _POOL_SIZE)
    hashed = (children[:, None] ^ before) * after
    hashed ^= hashed >> 16
    shared = np.array(pool, dtype=np.uint32)
    mixed = shared * np.uint32(_MIX_MULT_L) - hashed * np.uint32(_MIX_MULT_R)
    return mixed ^ (mixed >> 16)


#: ``generate_state(4, np.uint64)`` hashes 8 uint32 words, cycling
#: through the pool.
_STATE_WORDS = np.arange(8)
_STATE_XOR, _STATE_MULT = _multipliers(_INIT_B, _MULT_B, 8)


def _pool_states(pools: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of every row of a ``(seeds, pool_size)`` pool matrix."""
    words = (pools[:, _STATE_WORDS % pools.shape[1]] ^ _STATE_XOR) * _STATE_MULT
    words ^= words >> 16
    # numpy assembles each uint64 from two little-endian uint32 words.
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


class SpawnedSeeds(SequenceABC):
    """The children ``SeedSequence(root).spawn(count)`` returns, built on demand.

    Holds the root's entropy and the child range only.  Item ``c`` is
    ``SeedSequence(root, spawn_key=(c,))``, built on first access and kept,
    so every access returns the same object.  :meth:`generator_states`
    derives all children's PCG64 seed words from the root in one pass,
    without building any of them.
    """

    __slots__ = ("entropy", "_prefix", "_built")

    def __init__(self, entropy, count: int) -> None:
        words = _int_words(entropy)
        self.entropy = entropy
        #: The children's assembled entropy up to their spawn key: the
        #: root's words, zero-padded to the pool size (numpy pads whenever
        #: a spawn key follows).
        self._prefix = words + [0] * (_POOL_SIZE - len(words))
        self._built: List[Optional[np.random.SeedSequence]] = [None] * count

    def __len__(self) -> int:
        return len(self._built)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[c] for c in range(len(self))[index]]
        child = range(len(self))[index]
        seed = self._built[child]
        if seed is None:
            seed = self._built[child] = np.random.SeedSequence(
                self.entropy, spawn_key=(child,)
            )
        return seed

    def __iter__(self) -> Iterator[np.random.SeedSequence]:
        return (self[c] for c in range(len(self)))

    def generator_states(self) -> np.ndarray:
        """The ``(count, 4)`` uint64 PCG64 seed words of every child."""
        children = np.arange(len(self), dtype=np.uint32)
        return _pool_states(_child_pools(self._prefix, children))


def chain_seed_sequences(seed: Seed, n_chains: int) -> Sequence[np.random.SeedSequence]:
    """Per-chain seed sequences spawned from one root seed.

    Chain ``c`` of a batch seeded this way is bit-identical to the serial
    chain run with ``seed=chain_seed_sequences(seed, n)[c]`` (the serial
    samplers accept ``SeedSequence`` seeds directly).

    Parameters
    ----------
    seed : int or numpy.random.SeedSequence
        Root seed for the batch.  A ``SeedSequence`` root is spawned from
        (advancing its ``n_children_spawned``); an int root, or any other
        ``SeedSequence`` entropy, stands for ``SeedSequence(seed)``.
    n_chains : int
        Number of chains to seed.

    Returns
    -------
    sequence of numpy.random.SeedSequence
        ``n_chains`` statistically independent spawned streams, equal to
        ``SeedSequence(seed).spawn(n_chains)``.  For an int root this is a
        lazy :class:`SpawnedSeeds`: each child is built on first access
        and is the same object on every later access.
    """
    if n_chains < 1:
        raise ValueError("n_chains must be at least 1")
    if isinstance(seed, (int, np.integer)):
        return SpawnedSeeds(seed, n_chains)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(n_chains)


def as_seed_list(seeds: Sequence) -> Sequence:
    """Explicit per-chain seeds as a re-iterable sequence: a :class:`SpawnedSeeds`
    stays lazy, anything else becomes a list."""
    return seeds if isinstance(seeds, SpawnedSeeds) else list(seeds)


class _DerivedSeed(ISeedSequence):
    """One chain's PCG64 seed words, handed to ``PCG64`` in place of its seed.

    ``PCG64(seed_sequence)`` seeds itself from
    ``seed_sequence.generate_state(4, np.uint64)``; this returns those
    words, derived beforehand for the whole batch by
    :func:`generator_states`.  Picklable, as pickled generators carry it.
    """

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived chain seed holds exactly PCG64's 4 uint64 words")
        return self.words


def chain_generators(seeds: Sequence) -> List[np.random.Generator]:
    """One generator per chain seed, equal to ``default_rng(seed)`` bit for bit.

    Each PCG64 takes the words :func:`generator_states` derives for all
    seeds at once, instead of hashing its own ``SeedSequence``.
    """
    return [
        np.random.Generator(np.random.PCG64(_DerivedSeed(words)))
        for words in generator_states(seeds)
    ]


def generator_states(seeds: Sequence) -> np.ndarray:
    """The ``(chains, 4)`` uint64 PCG64 seed words of every chain's seed.

    Row ``c`` equals what ``default_rng(seeds[c])`` seeds its PCG64 with:
    ``generate_state(4, np.uint64)`` of the seed, or of
    ``SeedSequence(seed)`` for an int or other entropy.  A
    :class:`SpawnedSeeds` derives every row from its root; other seeds
    start from their ``pool``.  Either way the state hash runs once over
    all rows.
    """
    if isinstance(seeds, SpawnedSeeds):
        return seeds.generator_states()
    pools = [
        (seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)).pool
        for seed in seeds
    ]
    states = np.empty((len(seeds), 4), dtype=np.uint64)
    for size in {len(pool) for pool in pools}:
        chains = [chain for chain, pool in enumerate(pools) if len(pool) == size]
        states[chains] = _pool_states(np.stack([pools[chain] for chain in chains]))
    return states


def decode_configurations(
    codes: np.ndarray, nodes: Sequence[Node], alphabet: Sequence[Value]
) -> List[Dict[Node, Value]]:
    """Decode a ``(chains, n)`` code matrix row by row to configurations.

    Column ``j`` is ``nodes[j]`` and code ``k`` is ``alphabet[k]`` -- the
    compiled engine's order, which an
    :class:`~repro.runtime.shards.InstanceSpec` carries too.  The one decode
    rule of :meth:`ChainBatch.configurations` and of the chain blocks
    :func:`~repro.runtime.shards.run_chain_blocks` gathers from workers.
    """
    rows = codes.tolist()
    if all(type(value) is int and value == code for code, value in enumerate(alphabet)):
        # The alphabet is range(q): each code is its own value, so a row
        # zips straight into its dict without a per-cell lookup.
        return [dict(zip(nodes, row)) for row in rows]
    return [{node: alphabet[code] for node, code in zip(nodes, row)} for row in rows]


class ChainUniforms:
    """Every chain's uniform draws in one ``(chains, width)`` buffer.

    Row ``c`` holds the unread doubles of chain ``c``'s generator in
    ``values[c, cursor[c]:end[c]]``.  A take serves every chain with one
    flat ``take`` on the buffer; only rows about to run out refill, each
    from its own generator.  A refill draws what the calling kernel says
    its remaining ``rounds`` will need at this take's size (capped at
    :data:`~repro.sampling.kernels.RNG_CHUNK` doubles unless one take
    needs more), so the buffer never over-draws by a fixed block.  Every
    row is therefore a prefix of its generator's ``random`` stream: by
    prefix-consistency of ``Generator.random`` (one ``random(k)`` call
    yields the same doubles as any sequence of smaller calls), the values
    served equal the serial chain's unbuffered draws bit for bit, however
    the takes and refills are split.
    """

    __slots__ = ("rngs", "values", "cursor", "end")

    def __init__(self, rngs: Sequence[np.random.Generator]) -> None:
        self.rngs = rngs
        self.values = np.empty((len(rngs), 0))
        self.cursor = np.zeros(len(rngs), dtype=np.int64)
        self.end = np.zeros(len(rngs), dtype=np.int64)

    def take(self, count: int, rounds: int = 1) -> np.ndarray:
        """The next ``count`` doubles of every row, as ``(chains, count)``."""
        starts = self._reserve(count, rounds)
        self.cursor += count
        return self.values.take(starts[:, None] + np.arange(count))

    def take_ragged(self, counts: np.ndarray, rounds: int = 1) -> np.ndarray:
        """The next ``counts[c]`` doubles of each row ``c``, concatenated
        in row order (one flat array of ``counts.sum()`` values)."""
        # Entry i of row c sits at the row's cursor plus its rank in the
        # row, i - (entries of the rows before c).
        offsets = self._reserve(counts, rounds) - (np.cumsum(counts) - counts)
        self.cursor += counts
        total = int(counts.sum())
        return self.values.take(np.repeat(offsets, counts) + np.arange(total))

    def _reserve(self, need, rounds: int) -> np.ndarray:
        """Flat positions of each row's next unread double, once every row
        holds ``need`` of them.

        A row holding fewer keeps them and draws ``rounds * need`` more
        from its own generator -- at most :data:`RNG_CHUNK`, unless one
        take needs more.
        """
        need = np.broadcast_to(need, self.cursor.shape)
        unread = self.end - self.cursor
        short = np.flatnonzero(unread < need)
        if len(short):
            need = need[short]
            fresh = np.maximum(need, np.minimum(rounds * need, RNG_CHUNK))
            sizes = unread[short] + fresh
            width = int(sizes.max())
            if width > self.values.shape[1]:
                grown = np.empty((len(self.rngs), width))
                grown[:, : self.values.shape[1]] = self.values
                self.values = grown
            cursor, end = self.cursor.tolist(), self.end.tolist()
            for row, size in zip(short.tolist(), sizes.tolist()):
                values = self.values[row]
                tail = end[row] - cursor[row]
                values[:tail] = values[cursor[row] : end[row]]
                self.rngs[row].random(out=values[tail:size])
            self.cursor[short] = 0
            self.end[short] = sizes
        return np.arange(len(self.rngs)) * self.values.shape[1] + self.cursor


#: Rows one node's blanket table may have (``q ** |blanket|``).  A wider
#: blanket anywhere sends the whole instance to the per-step gather.
BLANKET_MAX_ROWS = 4096
#: Cells (distinct rows x ``q``) all blanket tables of one instance may
#: hold.  Each cell is stored twice -- as a weight and as a cumulative
#: weight -- so that is up to 16 MiB of float64.  Past it the whole
#: instance keeps the gather.
BLANKET_MAX_CELLS = 1 << 20


class _BatchedTables:
    """Per-node conditional tables for whole-batch conditional updates.

    Built once per compiled engine (:attr:`CompiledGibbs.batched_tables`)
    and shared by every :class:`ChainBatch`, :class:`PackedBatch` and the
    pseudo-likelihood of that model.  Two forms of the same weights:

    * the **gather** form flattens each node's factor entries into padded
      rectangular arrays: entry ``j`` of node ``v`` contributes the weight
      slab at ``pool[base[v, j] + a * stride0[v, j]]`` for alphabet code
      ``a``, offset by the neighbour codes at ``other[v, j, :]`` (strides
      ``ostride[v, j, :]``).  Missing entries point at an all-ones slab
      (pool offset 0, stride 1, zero neighbour strides), so one
      ``multiply.reduce`` over the entry axis (:meth:`_gather`) reproduces
      the serial per-factor product exactly -- the padding multiplies by
      1.0 *after* the real entries, which leaves the float result
      bit-identical.
    * the **blanket** form: a node's conditional depends only on the codes
      of its Markov blanket (the union of its entries' neighbours, in
      first-appearance order), so it is one table of ``q ** |blanket|``
      rows.  Node ``v``'s weights are
      ``rows[row_base[v] + sum_i codes[blanket[i, v]] * bstride[i, v]]``
      -- one strided index sum and one row gather per step (the three
      per-node arrays are row views of one field-major ``lookup`` record,
      shape ``(2 * span + 1, n)``).  Every row is computed by
      :meth:`_gather` on the enumerated blanket assignment, so it is
      bit-identical by construction.  Nodes with the same structural key
      (interned entry slabs and the blanket positions of their neighbours)
      share one table.  The table is held twice: as ``rows`` (row-major,
      for :meth:`weights`) and as ``cumulative``, the running sums along
      each row that :meth:`sample_codes` selects from, so a step never
      re-runs the ``cumsum`` (a sequential sum, so the precomputed rows are
      bit-identical to summing the gathered ones).  ``cumulative`` is held
      q-major, shape ``(q, rows)``: a step gathers its pairs along the last
      axis and runs its short reductions (over ``q`` and over the blanket)
      along the leading one, so numpy adds whole rows of pairs at a time
      instead of running one short inner loop per pair.  ``may_stick``
      records whether any row totals zero -- only then can a step hit the
      stuck-node error, so only then is the totals check run.

    The blanket form is used when every node fits :data:`BLANKET_MAX_ROWS`
    and the distinct tables fit :data:`BLANKET_MAX_CELLS`, both decided
    before any row is computed; otherwise ``rows`` is ``None`` and
    :meth:`weights` gathers per step.
    """

    __slots__ = (
        "q",
        "aq",
        "pool",
        "base",
        "stride0",
        "other",
        "ostride",
        "factorless",
        "rows",
        "lookup",
        "row_base",
        "blanket",
        "bstride",
        "cumulative",
        "may_stick",
        "_scopes",
    )

    def __init__(self, compiled) -> None:
        # The entry layout (slab pool, offsets, strides, entry order) is the
        # serial one of CompiledConditionals; this only rearranges it into
        # padded arrays.  Slabs there are interned by content, so equal
        # factors share one pool offset -- which is what lets the blanket
        # keys below dedupe nodes.
        conditionals = compiled.conditionals
        q = compiled.q
        n = len(compiled.nodes)
        self.q = q
        self.aq = np.arange(q)
        heads: List[tuple] = []  # (variable, entry, pool offset, stride0)
        links: List[tuple] = []  # (variable, entry, k, neighbour, stride)
        for variable, node_offsets in enumerate(conditionals.offsets):
            node_entries = conditionals.tables[variable]
            for j, (offset, (_, stride0, others, strides)) in enumerate(
                zip(node_offsets, node_entries)
            ):
                heads.append((variable, j, offset, stride0))
                for k, (other, stride) in enumerate(zip(others, strides)):
                    links.append((variable, j, k, other, stride))
        width = max(map(len, conditionals.tables), default=0) or 1
        arity = max([len(scope) - 1 for scope in compiled.scopes] + [1])
        self.pool = conditionals.pool
        self.base = np.zeros((n, width), dtype=np.int64)
        self.stride0 = np.ones((n, width), dtype=np.int64)
        self.other = np.zeros((n, width, arity), dtype=np.int64)
        self.ostride = np.zeros((n, width, arity), dtype=np.int64)
        if heads:
            variable, j, offset, stride0 = np.array(heads, dtype=np.int64).T
            self.base[variable, j] = offset
            self.stride0[variable, j] = stride0
        if links:
            variable, j, k, other, stride = np.array(links, dtype=np.int64).T
            self.other[variable, j, k] = other
            self.ostride[variable, j, k] = stride
        self.factorless = np.array([not e for e in conditionals.tables], dtype=bool)
        # Blanket keys: the entry slabs plus the blanket position of every
        # neighbour.  Distinct neighbours sit at positions 0, 1, 2, ... in
        # first-appearance order, so only repeated ones need spelling out.
        blankets: List[List[int]] = []
        key_ids: Dict[tuple, int] = {}
        node_table: List[int] = []
        representatives: List[tuple] = []  # (node, blanket width)
        for variable, node_offsets in enumerate(conditionals.offsets):
            neighbours = [o for _, _, others, _ in conditionals.tables[variable] for o in others]
            blanket = list(dict.fromkeys(neighbours))
            repeats = None
            if len(blanket) != len(neighbours):
                repeats = tuple(map({o: i for i, o in enumerate(blanket)}.get, neighbours))
            key = (node_offsets, repeats)
            table = key_ids.setdefault(key, len(key_ids))
            if table == len(representatives):
                representatives.append((variable, len(blanket)))
            node_table.append(table)
            blankets.append(blanket)
        counts = [q**b for _, b in representatives]
        self._clear_blanket()
        if counts and max(counts) <= BLANKET_MAX_ROWS and sum(counts) * q <= BLANKET_MAX_CELLS:
            self._build_blanket(blankets, node_table, representatives, counts)
        if self.rows is None:
            mode, tables, rows = "gather", 0, 0
            arrays = (self.pool, self.base, self.stride0, self.other, self.ostride)
        else:
            mode, tables, rows = "blanket", len(representatives), len(self.rows)
            arrays = (self.rows, self.cumulative, self.lookup)
        obs.instant(
            "runtime.tables.built",
            mode=mode,
            tables=tables,
            rows=rows,
            bytes=sum(array.nbytes for array in arrays),
        )

    def _build_blanket(self, blankets, node_table, representatives, counts) -> None:
        """Enumerate one table per distinct blanket key via :meth:`_gather`."""
        q = self.q
        n, width, arity = self.other.shape
        span = max(len(blanket) for blanket in blankets) or 1
        tables = []
        position = np.zeros(n, dtype=np.int64)
        for (variable, b), count in zip(representatives, counts):
            # One enumeration column per blanket position (C order: position
            # 0 is the most significant digit), with the representative's
            # neighbour columns remapped onto it (padding neighbours land on
            # some column but have stride 0).
            assignments = np.zeros((count, max(b, 1)), dtype=np.int64)
            if b:
                assignments[:, :b] = np.indices((q,) * b).reshape(b, count).T
            position[:] = 0
            position[blankets[variable]] = np.arange(b)
            columns = position[self.other[variable]]
            tables.append(
                self._gather(
                    assignments,
                    np.arange(count),
                    np.full(count, variable, dtype=np.int64),
                    columns=np.broadcast_to(columns, (count, width, arity)),
                )
            )
        starts = np.cumsum([0] + counts[:-1]).astype(np.int64)
        blanket = np.zeros((span, n), dtype=np.int64)
        bstride = np.zeros((span, n), dtype=np.int64)
        cells = [
            (variable, i, node, q ** (len(nodes) - 1 - i))
            for variable, nodes in enumerate(blankets)
            for i, node in enumerate(nodes)
        ]
        if cells:
            variable, i, node, stride = np.array(cells, dtype=np.int64).T
            blanket[i, variable] = node
            bstride[i, variable] = stride
        self._set_blanket(np.concatenate(tables), blanket, bstride, starts[node_table])

    def _clear_blanket(self) -> None:
        """The gather form: no blanket tables, and any step may stick."""
        self.rows = self.lookup = self.row_base = self.blanket = self.bstride = None
        self.cumulative = self._scopes = None
        self.may_stick = True

    def _set_blanket(self, rows, blanket, bstride, row_base) -> None:
        """Install the blanket form from ``(span, n)`` blanket and stride
        arrays.  ``blanket``, ``bstride`` and ``row_base`` become row views
        of one field-major ``lookup`` array, so a step fetches its nodes'
        whole records with a single gather along the last axis."""
        span = len(blanket)
        self.rows = rows
        self.cumulative = np.ascontiguousarray(np.cumsum(rows, axis=1).T)
        self.may_stick = not bool(np.all(self.cumulative[-1] > 0.0))
        self.lookup = np.concatenate([blanket, bstride, row_base[None, :]])
        self.blanket = self.lookup[:span]
        self.bstride = self.lookup[span : 2 * span]
        self.row_base = self.lookup[-1]

    @classmethod
    def merged(cls, parts: Sequence["_BatchedTables"]) -> "_BatchedTables":
        """Stack several models' tables along the node axis (one ``q``).

        Global variable ``node_offset[g] + local`` selects part ``g``'s node.
        Neighbour columns (``other``, ``blanket``) stay **column-local**:
        each packed code-matrix row belongs to one part whose variables
        occupy columns ``[0, n_g)``.  Gather pools are concatenated with
        rebased offsets and padded with all-ones entries (bit-identical, as
        for one model); blanket rows are concatenated with rebased
        ``row_base`` and blankets padded to the widest part with stride 0.
        The blanket form survives only when every part has it.
        """
        qs = {part.q for part in parts}
        if len(qs) != 1:
            raise ValueError("merged tables require one alphabet size")
        merged = cls.__new__(cls)
        merged.q = q = qs.pop()
        merged.aq = np.arange(q)
        width = max(part.base.shape[1] for part in parts)
        arity = max(part.other.shape[2] for part in parts)
        pool_starts = np.cumsum([0] + [len(part.pool) for part in parts[:-1]])
        bases, stride0s, others, ostrides = [], [], [], []
        for part, start in zip(parts, pool_starts):
            n, entries, part_arity = part.other.shape
            base = np.full((n, width), start, dtype=np.int64)
            base[:, :entries] = part.base + start
            stride0 = np.ones((n, width), dtype=np.int64)
            stride0[:, :entries] = part.stride0
            other = np.zeros((n, width, arity), dtype=np.int64)
            other[:, :entries, :part_arity] = part.other
            ostride = np.zeros((n, width, arity), dtype=np.int64)
            ostride[:, :entries, :part_arity] = part.ostride
            bases.append(base)
            stride0s.append(stride0)
            others.append(other)
            ostrides.append(ostride)
        merged.pool = np.concatenate([part.pool for part in parts])
        merged.base = np.concatenate(bases)
        merged.stride0 = np.concatenate(stride0s)
        merged.other = np.concatenate(others)
        merged.ostride = np.concatenate(ostrides)
        merged.factorless = np.concatenate([part.factorless for part in parts])
        merged._clear_blanket()
        if all(part.rows is not None for part in parts):
            span = max(len(part.blanket) for part in parts)
            row_starts = np.cumsum([0] + [len(part.rows) for part in parts[:-1]])
            blanket = np.zeros((span, len(merged.factorless)), dtype=np.int64)
            bstride = np.zeros_like(blanket)
            start = 0
            for part in parts:
                part_span, n = part.blanket.shape
                blanket[:part_span, start : start + n] = part.blanket
                bstride[:part_span, start : start + n] = part.bstride
                start += n
            merged._set_blanket(
                np.concatenate([part.rows for part in parts]),
                blanket,
                bstride,
                np.concatenate(
                    [part.row_base + start for part, start in zip(parts, row_starts)]
                ),
            )
        return merged

    def _gather(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        variables: np.ndarray,
        columns: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The per-pair factor gather: the blanket-row generator, and the
        per-step path of instances past a blanket cap.

        ``columns`` overrides where each neighbour's code is read in
        ``codes`` (default: the neighbour's own node id).
        """
        base = self.base[variables]  # (M, F)
        stride0 = self.stride0[variables]  # (M, F)
        if columns is None:
            columns = self.other[variables]  # (M, F, K)
        ostride = self.ostride[variables]  # (M, F, K)
        neighbour_codes = codes[rows[:, None, None], columns]
        offsets = base + (neighbour_codes * ostride).sum(axis=2)
        indices = offsets[:, :, None] + self.aq * stride0[:, :, None]
        return np.multiply.reduce(self.pool[indices], axis=1)

    def _row_index(
        self, codes: np.ndarray, rows: np.ndarray, variables: np.ndarray
    ) -> np.ndarray:
        """Blanket-table row of each (row, variable) pair.

        The records come from one gather along ``lookup``'s last axis and
        the blanket codes from one flat ``take`` on the code matrix (C
        order: cell ``(row, column)`` is ``row * width + column``); the
        strided sum then runs over the leading (blanket) axis.
        """
        record = self.lookup.take(variables, axis=1)  # blanket | bstride | row_base
        span = len(self.blanket)
        cells = record[:span] + rows * codes.shape[1]
        return record[-1] + np.add.reduce(codes.take(cells) * record[span:-1], axis=0)

    def weights(
        self, codes: np.ndarray, rows: np.ndarray, variables: np.ndarray
    ) -> np.ndarray:
        """Unnormalised conditional weights, one length-``q`` row per pair.

        ``rows[i]`` selects the chain (a row of ``codes``) and
        ``variables[i]`` the node being resampled; the result row ``i`` equals
        the serial ``weights_by_codes(variables[i], codes[rows[i]])``.
        """
        if self.rows is None:
            return self._gather(codes, rows, variables)
        return self.rows[self._row_index(codes, rows, variables)]

    def sample_codes(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        variables: np.ndarray,
        points: np.ndarray,
        compiled,
    ) -> np.ndarray:
        """Batched heat-bath resample: the new code for each (row, variable).

        THE bit-identity-critical inner loop, shared by every kernel's
        batched step (Glauber, LubyGlauber rounds, the scan kernels):
        take the cumulative conditional weights, q-major (columns of the
        precomputed ``cumulative``, or the transposed ``cumsum`` of the
        gathered weights past a blanket cap -- both in serial order), and
        pick the first code whose cumulative weight covers ``points[i] *
        total`` -- the strict ``<`` comparison and the ``q - 1`` clamp
        reproduce the serial :func:`sample_code` exactly.  A non-positive
        total raises the shared stuck-node error (padded factorless rows
        total exactly ``q``, so they can never trip it; callers that need
        the serial factorless *fast path* -- uniform resample via
        truncation -- handle it before or after this call).
        """
        if self.rows is None:
            cumulative = np.cumsum(self._gather(codes, rows, variables), axis=1).T
        else:
            cumulative = self.cumulative.take(
                self._row_index(codes, rows, variables), axis=1
            )
        return self._select(cumulative, points, variables, compiled)

    def sample_columns(
        self,
        codes: np.ndarray,
        variables: np.ndarray,
        points: np.ndarray,
        compiled,
    ) -> np.ndarray:
        """Resample ``k`` nodes in every chain at once: ``(chains, k)`` codes.

        The wave step of the scan kernels: column ``j`` is
        :meth:`sample_codes` of node ``variables[j]`` in every row of
        ``codes`` at ``points[:, j]``.  All reads see ``codes`` as given,
        so the nodes of one call must not read each other.  The blanket
        form does one record gather for the ``k`` nodes and one flat take
        of their blanket codes, laid out ``(span, k, chains)`` so that the
        pairs stay on the last axes; past a blanket cap the pairs are
        flattened step-major through :meth:`sample_codes`.  Either way the
        pick runs step-major, so a stuck wave names its earliest step.
        """
        chains, k = points.shape
        if self.rows is None:
            rows = np.tile(np.arange(chains), k)
            flat = self.sample_codes(
                codes, rows, np.repeat(variables, chains), points.T.ravel(), compiled
            )
            return flat.reshape(k, chains).T
        record = self.lookup.take(variables, axis=1)  # blanket | bstride | row_base
        span = len(self.blanket)
        width = codes.shape[1]
        cells = record[:span, :, None] + np.arange(0, chains * width, width)
        index = record[-1][:, None] + np.add.reduce(
            codes.take(cells) * record[span:-1, :, None], axis=0
        )  # (k, chains)
        cumulative = self.cumulative.take(index, axis=1)
        return self._select(cumulative, points.T, variables, compiled).T

    def _select(self, cumulative, points, variables, compiled) -> np.ndarray:
        """The heat-bath pick on q-major cumulative weights (leading axis
        ``q``, then the pairs, step-major)."""
        totals = cumulative[-1]
        if self.may_stick and not np.all(totals > 0.0):
            # The earliest step holding a stuck pair names the node.
            stuck = ~(totals > 0.0).reshape(len(variables), -1)
            raise stuck_node_error(compiled, variables[np.flatnonzero(stuck.any(axis=1))[0]])
        return np.minimum(np.add.reduce(cumulative < points * totals, axis=0), self.q - 1)

    def scan_scopes(self) -> List[List[int]]:
        """Per node, the node itself followed by its blanket (cached).

        The dependency neighbourhood of a scan step: the step reads the
        codes of its blanket and writes its own.  Blankets are symmetric
        (they come from shared factor scopes), so two steps depend on each
        other exactly when one's node lies in the other's scope.  Blanket
        form only.
        """
        if self._scopes is None:
            nodes = np.where(self.bstride != 0, self.blanket, -1).T.tolist()
            self._scopes = [
                [variable] + [node for node in row if node >= 0]
                for variable, row in enumerate(nodes)
            ]
        return self._scopes


class ChainBatch:
    """A batch of independent chains over one instance, as a code matrix.

    The batch is the kernel-agnostic execution state; the dynamics comes
    from the :class:`~repro.sampling.kernels.ChainKernel` handed to
    :meth:`advance` (one batch runs one kernel for its lifetime -- the
    per-chain RNG streams are not interchangeable between dynamics).

    A batch is also the resumable chain state of
    :meth:`~repro.runtime.executor.Runtime.run_chains` (``return_state=True``
    returns it, ``state=`` advances it further): its code matrix,
    generators, uniforms buffer and kernel scratch persist between
    advances, so a later segment continues the *same* chains -- the resume
    path persistent contrastive divergence needs.  Only LubyGlauber's
    segments equal one whole run (see the module's determinism contract).

    Parameters
    ----------
    instance:
        The sampling instance all chains target.
    n_chains:
        Number of chains (ignored when ``seeds`` is given explicitly).
    seed, seeds:
        Either a root ``seed`` from which per-chain streams are spawned
        (:func:`chain_seed_sequences`), or an explicit ``seeds`` sequence --
        one entry per chain, each a ``numpy.random.SeedSequence`` or its
        entropy (a non-negative int or a sequence of them).  Explicit seeds
        make chain ``c``
        bit-identical to the serial sampler called with ``seed=seeds[c]``.
        Either way chain ``c``'s generator is ``default_rng(seeds[c])`` bit
        for bit, seeded from words derived for all chains at once
        (:func:`chain_generators`).
    initial:
        Optional shared initial configuration (default: the deterministic
        greedy feasible configuration, exactly like the serial samplers).
    initial_codes:
        Optional ``(chains, n)`` integer code matrix giving each chain its
        *own* starting state (e.g. data configurations for persistent
        CD); mutually exclusive with ``initial``.
    """

    def __init__(
        self,
        instance: SamplingInstance,
        n_chains: Optional[int] = None,
        seed: Seed = 0,
        seeds: Optional[Sequence] = None,
        initial: Optional[Dict[Node, Value]] = None,
        initial_codes: Optional[np.ndarray] = None,
    ) -> None:
        if seeds is None:
            if n_chains is None:
                raise ValueError("pass n_chains (with a root seed) or explicit seeds")
            seeds = chain_seed_sequences(seed, n_chains)
        else:
            seeds = as_seed_list(seeds)
            if n_chains is not None and n_chains != len(seeds):
                raise ValueError("n_chains disagrees with the number of explicit seeds")
        if not seeds:
            raise ValueError("a chain batch needs at least one chain")
        self.seeds = seeds
        self.n_chains = len(seeds)
        compiled = self._bind(instance)
        if initial_codes is not None:
            if initial is not None:
                raise ValueError("pass initial or initial_codes, not both")
            initial_codes = np.asarray(initial_codes, dtype=np.int64)
            if initial_codes.shape != (self.n_chains, len(compiled.nodes)):
                raise ValueError(
                    f"initial_codes has shape {initial_codes.shape}, expected "
                    f"{(self.n_chains, len(compiled.nodes))}"
                )
            #: The ``(chains, n)`` state matrix of alphabet codes.
            self.codes = initial_codes.copy()
        else:
            if initial is None:
                start = greedy_start_codes(instance)
            else:
                start = np.array(
                    [compiled.symbol_index[initial[node]] for node in compiled.nodes],
                    dtype=np.int64,
                )
            self.codes = np.tile(start, (self.n_chains, 1))
        self.rngs = chain_generators(seeds)
        self._uniforms: Optional[ChainUniforms] = None
        #: The kernel this batch runs: claimed by its first
        #: :meth:`advance` (or :meth:`claim_kind`), ``None`` until then.
        self.kind: Optional[str] = None
        self._scratch: Dict[str, dict] = {}

    def _bind(self, instance: SamplingInstance):
        """Target ``instance``: its compiled engine, tables and free nodes."""
        self.instance = instance
        compiled = instance.distribution.compiled_engine()
        self.compiled = compiled
        self.tables: _BatchedTables = compiled.batched_tables
        #: Integer ids of the free nodes, in ``instance.free_nodes`` order.
        self.free_index = np.array(
            [compiled.node_index[node] for node in instance.free_nodes], dtype=np.int64
        )
        #: Whether any free node has no factor (kernels replicate the serial
        #: uniform-resample fast path for those).
        self.any_factorless = bool(
            len(self.free_index) and np.any(self.tables.factorless[self.free_index])
        )
        return compiled

    # ------------------------------------------------------------------
    def scratch(self, kernel_name: str) -> dict:
        """Kernel-private persistent state (scan positions, masks, caches)."""
        return self._scratch.setdefault(kernel_name, {})

    def uniforms(self) -> ChainUniforms:
        """Every chain's buffered uniform draws (created on first use)."""
        if self._uniforms is None:
            self._uniforms = ChainUniforms(self.rngs)
        return self._uniforms

    def stack_trace(self, trace: List[np.ndarray]) -> np.ndarray:
        """Stack per-unit statistic snapshots into a ``(chains, units)`` array."""
        if not trace:
            return np.empty((self.n_chains, 0))
        return np.stack(trace, axis=1)

    def claim_kind(self, kind: str) -> None:
        """One batch runs one chain kernel.

        Different kernels consume the per-chain streams with different
        draw patterns; interleaving them on the same generators would yield
        chains that correspond to no serial execution, silently voiding the
        bit-identity contract.  Fail loudly instead.
        """
        if self.kind is None:
            self.kind = kind
        elif self.kind != kind:
            raise RuntimeError(
                f"this ChainBatch already ran {self.kind} updates; create a "
                f"fresh batch for {kind} updates (the per-chain RNG streams "
                "are not interchangeable between chain kernels)"
            )

    # ------------------------------------------------------------------
    def advance(self, kernel, count: int, statistic=None):
        """Advance every chain by ``count`` units of ``kernel``.

        Parameters
        ----------
        kernel : str or ChainKernel
            The dynamics (a registered kernel name or instance).  A batch
            is claimed by the first kernel it runs; mixing kernels raises.
        count : int
            Units (steps/rounds) per chain.
        statistic : callable, optional
            Applied to the ``(chains, n)`` code matrix after every unit;
            when given, the per-chain traces are returned as a
            ``(chains, count)`` array (the input of the convergence
            diagnostics in :mod:`repro.analysis.convergence`).

        Returns
        -------
        ChainBatch or numpy.ndarray
            ``self`` (for chaining) without ``statistic``, else the trace.
        """
        resolved: ChainKernel = resolve_kernel(kernel)
        self.claim_kind(resolved.name)
        handle = obs.active()
        if handle is None:
            trace = resolved.batched_advance(self, count, statistic=statistic)
        else:
            chains = self.codes.shape[0]
            with handle.span(
                "chains.advance", kernel=resolved.name, chains=chains, count=count
            ):
                started = time.perf_counter()
                trace = resolved.batched_advance(self, count, statistic=statistic)
                elapsed = time.perf_counter() - started
            if elapsed > 0.0:
                handle.metrics.histogram(
                    "runtime.chains.steps_per_second", _THROUGHPUT_BUCKETS
                ).observe(chains * count / elapsed)
        if statistic is not None:
            return trace
        return self

    # ------------------------------------------------------------------
    def rebind(self, instance: SamplingInstance) -> None:
        """Point these chains, in place, at a reweighted twin of their instance.

        Persistent contrastive divergence keeps one set of chains alive
        while the model's factor *weights* move every gradient step.  The
        structure (nodes, alphabet, pinning) is fixed, so the live state
        -- code matrix, per-chain generators, uniforms buffer (the drawn
        but unread doubles of every chain, with their cursors) and kernel
        scratch -- stays as it is and only the conditional tables move to
        the twin engine's own (:attr:`CompiledGibbs.batched_tables`).  No
        generator is seeded anew, so resuming on the twin is bit-identical
        to having run on it all along.  A twin of another structure raises
        ``ValueError`` before anything changes.
        """
        compiled = instance.distribution.compiled_engine()
        if (
            compiled.nodes != self.compiled.nodes
            or compiled.alphabet != self.compiled.alphabet
        ):
            raise ValueError(
                "rebind requires an instance with identical nodes and alphabet"
            )
        if instance.pinning != self.instance.pinning:
            raise ValueError("rebind requires an instance with the same pinning")
        self._bind(instance)

    # ------------------------------------------------------------------
    def configurations(self) -> List[Dict[Node, Value]]:
        """The current state of every chain, decoded to configurations.

        Returns
        -------
        list of dict
            One ``{node: value}`` configuration per chain, in chain order.
        """
        return decode_configurations(
            self.codes, self.compiled.nodes, self.compiled.alphabet
        )


#: Histogram boundaries for pack efficiency (used cells / padded cells).
_PACK_EFFICIENCY_BUCKETS = tuple(i / 10.0 for i in range(1, 11))


class _PackedLayout:
    """The fused execution layout of a :class:`PackedBatch` (cached).

    Precomputes everything a mask-aware kernel step needs to advance all
    groups' chains as one padded ``(total_chains, n_max)`` code matrix:

    * merged conditional tables (:meth:`_BatchedTables.merged`) -- node
      axes stacked so the *global* variable id ``node_offset[g] +
      local_id`` selects group ``g``'s table row, neighbour columns kept
      **column-local** (each packed row belongs to exactly one group whose
      variables occupy columns ``[0, n_g)``, so a row's reads never cross
      into padding).  The fused step uses the merged blanket rows, or the
      merged gather when some group is over a blanket cap.
    * per-chain group ids, node offsets, free counts and a padded
      ``free_lookup`` (the local column of each group's ``j``-th free
      node), so per-chain draws replicate each solo batch's RNG calls.
    * ``nodes`` -- the concatenated node labels, letting the shared
      stuck-node error name the right node from a global variable id.

    Requires every group to share one alphabet size ``q`` (kernels fall
    back to groupwise advance otherwise).
    """

    __slots__ = (
        "tables",
        "nodes",
        "node_offsets",
        "chain_group",
        "chain_node_offset",
        "free_counts",
        "free_lookup",
        "rngs",
        "any_factorless",
        "total_chains",
        "n_max",
        "row_offsets",
    )

    def __init__(self, groups: Sequence["ChainBatch"]) -> None:
        self.tables = _BatchedTables.merged([group.tables for group in groups])
        self.nodes = tuple(
            node for group in groups for node in group.compiled.nodes
        )
        sizes = [len(group.compiled.nodes) for group in groups]
        self.node_offsets = np.cumsum([0] + sizes[:-1]).astype(np.int64)
        self.n_max = max(sizes)
        counts = [group.n_chains for group in groups]
        self.total_chains = sum(counts)
        self.row_offsets = np.cumsum([0] + counts[:-1]).astype(np.int64)
        self.chain_group = np.repeat(np.arange(len(groups)), counts)
        self.chain_node_offset = self.node_offsets[self.chain_group]
        group_free = np.array(
            [len(group.free_index) for group in groups], dtype=np.int64
        )
        self.free_counts = group_free[self.chain_group]
        max_free = int(group_free.max()) if len(group_free) else 0
        free_lookup = np.zeros((self.total_chains, max(1, max_free)), dtype=np.int64)
        for g, group in enumerate(groups):
            rows = slice(self.row_offsets[g], self.row_offsets[g] + counts[g])
            free_lookup[rows, : len(group.free_index)] = group.free_index
        self.free_lookup = free_lookup
        self.rngs = [rng for group in groups for rng in group.rngs]
        self.any_factorless = any(group.any_factorless for group in groups)


class PackedBatch:
    """Many small instances (possibly different models) as one padded matrix.

    The million-user serving shape: concurrent requests target *different*
    registered models, each a small instance with a handful of chains.
    Advancing them one :class:`ChainBatch` at a time pays the per-step
    Python overhead once **per model**; a ``PackedBatch`` packs all groups
    into one ``(total_chains, n_max)`` code matrix -- rows left-aligned,
    group ``g``'s variables in columns ``[0, n_g)``, per-instance column
    masks implied by the layout -- so mask-aware kernels
    (:meth:`~repro.sampling.kernels.ChainKernel.packed_advance`) pay it
    once per **step** across every model.

    Determinism contract: group ``g`` seeded with ``seeds_g`` leaves its
    chains bit-identical to a solo ``ChainBatch(instance_g,
    seeds=seeds_g)`` advanced the same ``count`` -- the fused step
    replicates each chain's exact solo draw pattern (same per-chain
    ``integers``/``random`` calls, same float product order thanks to
    all-ones padding), and kernels without a fused step fall back to
    advancing each group independently, which is solo execution by
    definition.  Same per-request seed contract as the serving coalescer.

    Parameters
    ----------
    requests:
        One entry per group: a ``(instance, seeds)`` pair, an
        ``(instance, seeds, initial)`` triple, or a ready
        :class:`ChainBatch`.
    """

    def __init__(self, requests: Sequence) -> None:
        groups: List[ChainBatch] = []
        for request in requests:
            if isinstance(request, ChainBatch):
                groups.append(request)
            else:
                instance, seeds, *rest = request
                initial = rest[0] if rest else None
                groups.append(ChainBatch(instance, seeds=seeds, initial=initial))
        if not groups:
            raise ValueError("a packed batch needs at least one group")
        self.groups = groups
        self._layout: Optional[_PackedLayout] = None

    # ------------------------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def total_chains(self) -> int:
        return sum(group.n_chains for group in self.groups)

    @property
    def n_max(self) -> int:
        return max(len(group.compiled.nodes) for group in self.groups)

    def pack_efficiency(self) -> float:
        """Used cells / padded cells of the ``(total_chains, n_max)`` matrix."""
        used = sum(
            group.n_chains * len(group.compiled.nodes) for group in self.groups
        )
        return used / float(self.total_chains * self.n_max)

    def fusable(self) -> bool:
        """Whether a single fused kernel step can cover every group.

        Requires one shared alphabet size (the padded gather tables merge
        along the node axis) and at least one free node per group (a group
        with nothing to resample draws nothing, which no uniform fused
        draw pattern can replicate).  Non-fusable packs still run -- group
        by group.
        """
        qs = {group.tables.q for group in self.groups}
        return len(qs) == 1 and all(
            len(group.free_index) > 0 for group in self.groups
        )

    def layout(self) -> _PackedLayout:
        """The cached fused layout (build on first use; requires fusable)."""
        if self._layout is None:
            self._layout = _PackedLayout(self.groups)
        return self._layout

    # ------------------------------------------------------------------
    def gather_codes(self) -> np.ndarray:
        """Assemble the padded ``(total_chains, n_max)`` code matrix.

        Padding cells (columns ``>= n_g`` of group ``g``'s rows) are zero;
        they are never read -- neighbour gathers are column-local -- and
        never written.
        """
        layout = self.layout()
        codes = np.zeros((layout.total_chains, layout.n_max), dtype=np.int64)
        for g, group in enumerate(self.groups):
            rows = slice(
                layout.row_offsets[g], layout.row_offsets[g] + group.n_chains
            )
            codes[rows, : group.codes.shape[1]] = group.codes
        return codes

    def scatter_codes(self, codes: np.ndarray) -> None:
        """Write the packed matrix back into each group's own code matrix."""
        layout = self.layout()
        for g, group in enumerate(self.groups):
            rows = slice(
                layout.row_offsets[g], layout.row_offsets[g] + group.n_chains
            )
            group.codes[...] = codes[rows, : group.codes.shape[1]]

    # ------------------------------------------------------------------
    def advance(self, kernel, count: int) -> "PackedBatch":
        """Advance every chain of every group by ``count`` units of ``kernel``.

        Dispatches to the kernel's
        :meth:`~repro.sampling.kernels.ChainKernel.packed_advance` -- the
        fused mask-aware step where the kernel defines one and the pack is
        fusable, the groupwise solo loop otherwise.  Either way each
        group's chains end bit-identical to its solo batch.  With obs on,
        a ``runtime.chains.packed_path`` instant (``path="fused"`` or
        ``"groupwise"``, ``kernel``, ``groups``) records which one ran.
        """
        resolved: ChainKernel = resolve_kernel(kernel)
        for group in self.groups:
            group.claim_kind(resolved.name)
        handle = obs.active()
        if handle is None:
            resolved.packed_advance(self, count)
            return self
        obs.instant(
            "runtime.chains.packed_path",
            path="fused" if resolved.fuses(self) else "groupwise",
            kernel=resolved.name,
            groups=self.n_groups,
        )
        with handle.span(
            "chains.packed_advance",
            kernel=resolved.name,
            groups=self.n_groups,
            chains=self.total_chains,
            count=count,
        ):
            started = time.perf_counter()
            resolved.packed_advance(self, count)
            elapsed = time.perf_counter() - started
        handle.metrics.histogram(
            "runtime.chains.pack_efficiency", _PACK_EFFICIENCY_BUCKETS
        ).observe(self.pack_efficiency())
        if elapsed > 0.0:
            handle.metrics.histogram(
                "runtime.chains.steps_per_second", _THROUGHPUT_BUCKETS
            ).observe(self.total_chains * count / elapsed)
        return self

    def configurations(self) -> List[List[Dict[Node, Value]]]:
        """Per-group lists of decoded chain states, in request order."""
        return [group.configurations() for group in self.groups]
