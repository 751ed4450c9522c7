"""Variable elimination as axis-labelled tensor contractions.

This is the computational core of the compiled evaluation engine: potentials
are ``(axes, array)`` pairs where ``axes`` is a tuple of integer variable ids
and ``array`` a dense NumPy array with one length-``q`` axis per variable.
Multiplication aligns the axes by broadcasting, and summing a variable out is
a single ``ndarray.sum`` -- the dict-of-tuples joins of
:mod:`repro.gibbs.elimination` become a handful of vectorised array
operations per eliminated variable.

The elimination order is the same min-degree heuristic the dict engine uses,
computed on the interaction graph of the (pinning-restricted) potentials.
The order depends only on *which* variables are pinned, never on the pinned
values, so callers can cache it per pinned-domain (see
:class:`repro.engine.compiled.CompiledGibbs`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: Memoised axis-alignment plans keyed by the input axes signature.  The same
#: handful of signatures recurs across every elimination call on a given
#: instance, so the union/sort/reshape bookkeeping is paid once per shape.
_ALIGN_PLANS: Dict[tuple, tuple] = {}
_ALIGN_PLAN_LIMIT = 8192


def _alignment_plan(signature: tuple, q: int) -> tuple:
    plan = _ALIGN_PLANS.get(signature)
    if plan is None:
        union: List[int] = []
        for axes in signature[:-1]:
            for axis in axes:
                if axis not in union:
                    union.append(axis)
        union_axes = tuple(union)
        position = {axis: i for i, axis in enumerate(union_axes)}
        steps = []
        for axes in signature[:-1]:
            if not axes:
                steps.append(None)
                continue
            order = sorted(range(len(axes)), key=lambda i: position[axes[i]])
            shape = [1] * len(union_axes)
            for axis in axes:
                shape[position[axis]] = q
            steps.append(
                (
                    tuple(order) if order != list(range(len(axes))) else None,
                    tuple(shape),
                )
            )
        plan = (union_axes, tuple(steps))
        if len(_ALIGN_PLANS) >= _ALIGN_PLAN_LIMIT:
            _ALIGN_PLANS.clear()
        _ALIGN_PLANS[signature] = plan
    return plan


def min_degree_order(
    scopes: Iterable[Tuple[int, ...]], free: Sequence[int]
) -> Tuple[int, ...]:
    """Min-degree (with fill-in simulation) elimination order over ``free``.

    Mirrors the dict engine's heuristic; integer variable ids make the
    tie-break deterministic without ``repr`` calls.

    Parameters
    ----------
    scopes : iterable of tuple of int
        Variable-id scopes of the potentials (the interaction graph).
    free : sequence of int
        Variables to order; everything else is treated as already gone.

    Returns
    -------
    tuple of int
        A permutation of ``free`` in elimination order.
    """
    neighbors: Dict[int, set] = {variable: set() for variable in free}
    for scope in scopes:
        in_free = [variable for variable in scope if variable in neighbors]
        for u in in_free:
            neighbors[u].update(w for w in in_free if w != u)
    order: List[int] = []
    remaining = set(free)
    while remaining:
        variable = min(remaining, key=lambda v: (len(neighbors[v] & remaining), v))
        order.append(variable)
        live = neighbors[variable] & remaining
        for u in live:
            neighbors[u].update(w for w in live if w != u)
        remaining.discard(variable)
    return tuple(order)


def build_schedule(
    potential_axes: Sequence[Tuple[int, ...]],
    free: Sequence[int],
    q: int,
    keep: Sequence[int] = (),
    order: Optional[Sequence[int]] = None,
) -> Tuple[tuple, Tuple[int, ...]]:
    """Symbolically contract on axes alone; return ``(ops, final_axes)``.

    The ops sequence records the full multiply/sum elimination with all
    bookkeeping (axis unions, transpose orders, broadcast shapes, sum
    positions) resolved ahead of time.  Because the restricted axes depend
    only on *which* variables are pinned -- never on the pinned values -- a
    schedule can be cached per pinned domain and executed with
    :func:`execute_schedule` for every value combination.

    Ops are ``("ones",)`` (append a uniform length-``q`` table for a loose
    free variable) or ``("contract", slot_ids, per_input_specs, sum_position
    Optional[int])`` (broadcast-multiply the slots, then sum out the axis at
    ``sum_position``; ``None`` for the final combine).  Every op appends its
    result slot; the last slot is the final potential.

    Parameters
    ----------
    potential_axes : sequence of tuple of int
        Axis labels of the (already restricted) input potentials.
    free : sequence of int
        Free variables of the query; loose ones get uniform tables.
    q : int
        Alphabet size (every axis has length ``q``).
    keep : sequence of int, optional
        Variables to keep (not sum out) -- the marginal's axes.
    order : sequence of int, optional
        Elimination order; defaults to :func:`min_degree_order`.

    Returns
    -------
    (tuple, tuple of int)
        The op sequence for :func:`execute_schedule` and the axis labels of
        the final potential (a permutation of ``keep``).
    """
    axes_list: List[Tuple[int, ...]] = list(potential_axes)
    ops: List[tuple] = []
    covered = set()
    for axes in axes_list:
        covered.update(axes)
    for variable in free:
        if variable not in covered:
            ops.append(("ones",))
            axes_list.append((variable,))
    keep_set = set(keep)
    if order is None:
        order = min_degree_order(axes_list, free)
    by_variable: Dict[int, List[int]] = {}
    for index, axes in enumerate(axes_list):
        for axis in axes:
            by_variable.setdefault(axis, []).append(index)
    alive = [True] * len(axes_list)
    for variable in order:
        if variable in keep_set:
            continue
        involved_ids = [i for i in by_variable.get(variable, ()) if alive[i]]
        if not involved_ids:
            continue
        for i in involved_ids:
            alive[i] = False
        signature = tuple(axes_list[i] for i in involved_ids) + (q,)
        union_axes, specs = _alignment_plan(signature, q)
        position = union_axes.index(variable)
        new_axes = union_axes[:position] + union_axes[position + 1 :]
        ops.append(("contract", tuple(involved_ids), specs, position))
        index = len(axes_list)
        axes_list.append(new_axes)
        alive.append(True)
        for axis in new_axes:
            by_variable.setdefault(axis, []).append(index)
    rest = [index for index in range(len(axes_list)) if alive[index]]
    signature = tuple(axes_list[i] for i in rest) + (q,)
    union_axes, specs = _alignment_plan(signature, q)
    ops.append(("contract", tuple(rest), specs, None))
    return tuple(ops), union_axes


def execute_schedule(ops: Sequence[tuple], arrays: Sequence[np.ndarray], q: int) -> np.ndarray:
    """Run a :func:`build_schedule` plan on concrete (restricted) arrays.

    Parameters
    ----------
    ops : sequence of tuple
        The op sequence produced by :func:`build_schedule`.
    arrays : sequence of numpy.ndarray
        Restricted potential arrays, in the slot order the plan was built
        for (same pinned domain, any pinned values).
    q : int
        Alphabet size.

    Returns
    -------
    numpy.ndarray
        The final potential; its axes are the ``final_axes`` returned by
        :func:`build_schedule`.
    """
    slots: List[np.ndarray] = list(arrays)
    ones: Optional[np.ndarray] = None
    for op in ops:
        if op[0] == "ones":
            if ones is None:
                ones = np.ones(q)
            slots.append(ones)
            continue
        _, ids, specs, sum_position = op
        result: Optional[np.ndarray] = None
        for i, spec in zip(ids, specs):
            array = slots[i]
            if spec is not None:
                order, shape = spec
                if order is not None:
                    array = array.transpose(order)
                array = array.reshape(shape)
            result = array if result is None else result * array
        if result is None:
            result = np.array(1.0)
        if sum_position is not None:
            result = np.add.reduce(result, axis=sum_position)
        slots.append(result)
    return slots[-1]
