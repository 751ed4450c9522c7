"""Vectorised single-site conditionals for the Glauber/LubyGlauber chains.

For each node ``v`` the constructor pre-gathers every factor containing
``v``: the factor array is transposed so ``v``'s axis comes first and stored
as a flat C-order weight list plus the strides of the remaining scope nodes.
A conditional at ``v`` is then one offset computation and one strided slice
per factor -- the slice *is* the gather over the alphabet axis -- followed by
an elementwise product of length-``q`` lists.  No dict construction, no
per-value ``Factor.evaluate`` calls, and (deliberately) no NumPy in the
per-step path: for the tiny ``q`` of the paper's models plain Python floats
beat ndarray scalar overhead by a wide margin.

This module owns the entry layout: the batched chain tables
(:class:`repro.runtime.chains._BatchedTables`) are built from ``tables``,
``offsets`` and ``pool`` rather than from the factor arrays, so the serial
and batched conditionals cannot disagree on strides or entry order.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Tuple

import numpy as np

Node = Hashable
Value = Hashable

#: Per-factor entry: (flat weights, stride of the alphabet axis,
#: other scope node ids, strides of the other scope nodes).
_Entry = Tuple[List[float], int, Tuple[int, ...], Tuple[int, ...]]


class CompiledConditionals:
    """Per-node gathered factor tables supporting one-slice local conditionals.

    Parameters
    ----------
    compiled : CompiledGibbs
        The compiled instance whose factors are gathered; reached lazily
        through :attr:`CompiledGibbs.conditionals` in normal use.
    """

    __slots__ = ("compiled", "q", "tables", "offsets", "pool", "_uniform")

    def __init__(self, compiled) -> None:
        self.compiled = compiled
        q = compiled.q
        self.q = q
        # Flat slabs are interned by content: equal factors share one list
        # and one offset into ``pool``, the float64 concatenation of the
        # distinct slabs that the batched tables gather from (offset 0 is an
        # all-ones padding slab).
        tables: List[List[_Entry]] = [[] for _ in compiled.nodes]
        offsets: List[List[int]] = [[] for _ in compiled.nodes]
        pieces = [np.ones(q)]
        flats: Dict[int, List[float]] = {}
        offset_of_slab: Dict[bytes, int] = {}
        offset_of_entry: Dict[Tuple[bytes, int], int] = {}
        size = q
        for scope, array in zip(compiled.scopes, compiled.arrays):
            array = np.asarray(array, dtype=np.float64)
            content = array.tobytes()
            # C-order strides of the trailing axes, in units of items.
            strides = tuple(q ** (len(scope) - 2 - i) for i in range(len(scope) - 1))
            stride0 = q ** (len(scope) - 1)
            for position, variable in enumerate(scope):
                offset = offset_of_entry.get((content, position))
                if offset is None:
                    slab = np.moveaxis(array, position, 0).ravel()
                    offset = offset_of_slab.setdefault(slab.tobytes(), size)
                    if offset == size:
                        pieces.append(slab)
                        flats[offset] = slab.tolist()
                        size += len(slab)
                    offset_of_entry[(content, position)] = offset
                others = scope[:position] + scope[position + 1 :]
                tables[variable].append((flats[offset], stride0, others, strides))
                offsets[variable].append(offset)
        self.tables: Tuple[Tuple[_Entry, ...], ...] = tuple(
            tuple(entries) for entries in tables
        )
        #: Per node, the ``pool`` offset of each entry's slab (same order
        #: as ``tables``).
        self.offsets: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, offsets))
        self.pool = np.concatenate(pieces)
        self._uniform = [1.0] * q

    # ------------------------------------------------------------------
    def weights_by_codes(self, variable: int, codes) -> List[float]:
        """Unnormalised conditional weights of ``variable`` as a length-``q`` list.

        Parameters
        ----------
        variable : int
            Integer id of the node being resampled.
        codes
            Indexable by node id; must hold the current symbol code of every
            node appearing in a factor with ``variable``.

        Returns
        -------
        list of float
            One weight per alphabet code (uniform for factorless nodes).
        """
        weights = None
        for flat, stride0, others, strides in self.tables[variable]:
            offset = 0
            for other, stride in zip(others, strides):
                offset += codes[other] * stride
            gathered = flat[offset::stride0]
            if weights is None:
                weights = gathered
            else:
                weights = [w * g for w, g in zip(weights, gathered)]
        if weights is None:
            return list(self._uniform)
        return weights

    def weights_partial(self, variable: int, codes) -> List[float]:
        """Like :meth:`weights_by_codes` but skipping factors whose other
        scope nodes are not yet assigned (``code < 0`` marks unassigned).

        This is the greedy-construction primitive: only fully assigned
        factors constrain the choice, matching the reference implementation.

        Parameters
        ----------
        variable : int
            Integer id of the node being assigned.
        codes
            Indexable by node id; ``-1`` entries mark unassigned nodes.

        Returns
        -------
        list of float
            One weight per alphabet code, constrained only by the factors
            whose scope is fully assigned.
        """
        weights = None
        for flat, stride0, others, strides in self.tables[variable]:
            offset = 0
            unassigned = False
            for other, stride in zip(others, strides):
                code = codes[other]
                if code < 0:
                    unassigned = True
                    break
                offset += code * stride
            if unassigned:
                continue
            gathered = flat[offset::stride0]
            if weights is None:
                weights = gathered
            else:
                weights = [w * g for w, g in zip(weights, gathered)]
        if weights is None:
            return list(self._uniform)
        return weights

    def weights_by_mapping(
        self, node: Node, configuration: Mapping[Node, Value]
    ) -> List[float]:
        """Conditional weights of ``node`` given a dict configuration.

        Only the neighbours of ``node`` inside its factors are read, so this
        stays a strictly local ``O(deg)`` computation.  The kernel is
        delegated to :meth:`weights_by_codes` via a sparse code mapping.
        """
        compiled = self.compiled
        variable = compiled.node_index[node]
        symbol_index = compiled.symbol_index
        nodes = compiled.nodes
        codes: dict = {}
        for _, _, others, _ in self.tables[variable]:
            for other in others:
                if other not in codes:
                    codes[other] = symbol_index[configuration[nodes[other]]]
        return self.weights_by_codes(variable, codes)
