"""Keyed-state repartitioning for elastic shard pools (ISSUE 6).

The process backend shards operator state by ``stable_hash(key) % N``.
Because control ops (query markers, watermarks, barriers) are broadcast
to every shard in FIFO order, the *control* portion of each operator's
state — slicers, changelog tables, specs, subscription bitsets — is
identical on every shard, while the *keyed* portion — per-slice
accumulator maps, per-slice tuple stores, session windows — is disjoint
across shards.  That factoring makes live migration a pure data-plane
operation:

* **control state** is replicated from any donor (we use shard 0);
* **keyed state** is the disjoint union of all donors, re-split by
  ``stable_hash(key) % M`` for the new shard count ``M``.

Empty slices are results-neutral (window firing skips empty stores, and
slicing decisions come from the replicated :class:`SliceManager`, not
from slice existence), so destinations only materialise slices that
receive at least one key — the same lazy shape a from-scratch M-shard
run would produce.

:func:`repartition_shard_states` operates on the per-shard payloads that
flow through the ``pack_shard_states``/``unpack_shard_states`` checkpoint
seam, so the same function serves runtime ``resize(n)`` migration and
restoring an N-shard checkpoint into an M-worker pool after recovery.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List

from repro.core.router import merge_channel_snapshots
from repro.core.slicing import SliceIndex
from repro.core.storage import make_store
from repro.minispe.runtime import stable_hash

__all__ = [
    "repartition_shard_states",
    "split_keyed_map",
    "merge_keyed_maps",
]


def split_keyed_map(mapping: Dict[Any, Any], new_count: int) -> List[Dict[Any, Any]]:
    """Split ``{key: value}`` into ``new_count`` maps by key hash."""
    if new_count < 1:
        raise ValueError(f"need at least one partition, got {new_count}")
    parts: List[Dict[Any, Any]] = [{} for _ in range(new_count)]
    for key, value in mapping.items():
        parts[stable_hash(key) % new_count][key] = value
    return parts


def merge_keyed_maps(parts: List[Dict[Any, Any]]) -> Dict[Any, Any]:
    """Disjoint union of keyed maps; overlapping keys are a bug."""
    merged: Dict[Any, Any] = {}
    for part in parts:
        for key, value in part.items():
            if key in merged:
                raise ValueError(f"key {key!r} present in multiple partitions")
            merged[key] = value
    return merged


def _owner(key: Any, shard_count: int) -> int:
    return stable_hash(key) % shard_count


def _split_agg_state(donors: List[dict], new_count: int) -> List[dict]:
    """Repartition one shared-aggregation operator's snapshots.

    Control keys (slicer, changelogs, specs, subscribed, session_specs)
    are replicated from donor 0; per-slice accumulator maps and session
    state are re-split by key.
    """
    control = donors[0]
    horizon = max(d["slices"]._expiry_horizon_ms for d in donors)
    outputs: List[dict] = []
    for dest in range(new_count):
        index = SliceIndex()
        index._expiry_horizon_ms = horizon
        for donor in donors:
            for slice_ in donor["slices"]:
                store = slice_.store
                if not store:
                    continue
                for slot, per_key in store.items():
                    for key, acc in per_key.items():
                        if _owner(key, new_count) != dest:
                            continue
                        target = index.get_or_create(
                            slice_.start, slice_.end, slice_.epoch
                        )
                        if target.store is None:
                            target.store = {}
                        target.store.setdefault(slot, {})[key] = acc
        session_state = {}
        for donor in donors:
            for (slot, key), state in donor["session_state"].items():
                if _owner(key, new_count) == dest:
                    session_state[(slot, key)] = state
        outputs.append({
            "slicer": copy.deepcopy(control["slicer"]),
            "slices": index,
            "changelogs": copy.deepcopy(control["changelogs"]),
            "specs": copy.deepcopy(control["specs"]),
            "subscribed": control["subscribed"],
            "session_specs": copy.deepcopy(control["session_specs"]),
            "session_state": session_state,
        })
    return outputs


def _split_tuple_index(
    donors: List[Any], side: str, new_count: int, store_kind: Any
) -> List[SliceIndex]:
    """Re-split one side (left/right) of a join's slice indexes."""
    horizon = max(d[side]._expiry_horizon_ms for d in donors)
    outputs: List[SliceIndex] = []
    for dest in range(new_count):
        index = SliceIndex()
        index._expiry_horizon_ms = horizon
        for donor in donors:
            for slice_ in donor[side]:
                store = slice_.store
                if store is None:
                    continue
                for key in store.keys():
                    if _owner(key, new_count) != dest:
                        continue
                    items = store.items_for_key(key)
                    if not items:
                        continue
                    target = index.get_or_create(
                        slice_.start, slice_.end, slice_.epoch
                    )
                    if target.store is None:
                        target.store = make_store(store_kind)
                    for value, query_set in items:
                        target.store.add(key, value, query_set)
        outputs.append(index)
    return outputs


def _split_join_state(donors: List[dict], new_count: int) -> List[dict]:
    """Repartition one shared-join operator's snapshots.

    Tuple stores are keyed, so both sides re-split cleanly; the pair
    cache entries carry their keys, so the computation history splits
    too (a destination reusing a filtered entry yields exactly what a
    recompute over its filtered stores would).  Store layout follows
    donor 0 — the grouped/list switch is a performance heuristic with no
    result-visible effect.
    """
    control = donors[0]
    store_kind = control["store_kind"]
    left = _split_tuple_index(donors, "left", new_count, store_kind)
    right = _split_tuple_index(donors, "right", new_count, store_kind)
    outputs: List[dict] = []
    for dest in range(new_count):
        pair_cache: Dict[Any, Dict[int, List[Any]]] = {}
        for donor in donors:
            for pair_key, groups in donor["pair_cache"].items():
                dest_groups = pair_cache.setdefault(pair_key, {})
                for raw_qs, items in groups.items():
                    kept = [
                        item
                        for item in items
                        if _owner(item[0], new_count) == dest
                    ]
                    if kept:
                        dest_groups.setdefault(raw_qs, []).extend(kept)
        outputs.append(
            {
                "slicer": copy.deepcopy(control["slicer"]),
                "left": left[dest],
                "right": right[dest],
                "changelogs": copy.deepcopy(control["changelogs"]),
                "store_kind": store_kind,
                "pair_cache": pair_cache,
                "output_slots": control["output_slots"],
            }
        )
    return outputs


_SELECT_COUNTER_KEYS = (
    "evaluations",
    "cover_skips",
    "index_probes",
    "residual_checks",
)


def _split_select_state(donors: List[dict], new_count: int) -> List[dict]:
    """Control-replicated selection state with conserved work counters.

    The predicate table is identical on every shard (structure copies
    from donor 0), but the lifetime evaluation counters measure each
    shard's own work and merge by *sum* in ``sharing_summary()`` — so
    the donors' totals land on new shard 0 and the other destinations
    start at zero, keeping the merged total exactly what it was.

    States without counters (older exports, synthetic fixtures) are
    replicated verbatim.
    """
    if not any(
        "evaluations" in donor or "group_stats" in donor for donor in donors
    ):
        return [copy.deepcopy(donors[0]) for _ in range(new_count)]
    total_evaluations = sum(d.get("evaluations", 0) for d in donors)
    totals = {
        key: sum(d.get("group_stats", {}).get(key, 0) for d in donors)
        for key in _SELECT_COUNTER_KEYS
    }
    outputs: List[dict] = []
    for dest in range(new_count):
        state = copy.deepcopy(donors[0])
        if dest == 0:
            state["evaluations"] = total_evaluations
            state["group_stats"] = dict(totals)
        else:
            state["evaluations"] = 0
            state["group_stats"] = dict.fromkeys(_SELECT_COUNTER_KEYS, 0)
        outputs.append(state)
    return outputs


def _empty_channels() -> dict:
    return {"counts": {}, "results": {}}


def repartition_shard_states(
    states: List[dict], new_count: int, retain_results: bool = True
) -> List[dict]:
    """Re-split N per-shard state payloads into ``new_count`` payloads.

    ``states`` are the per-shard exports flowing through the checkpoint
    seam: ``{"runtime": {vertex: {instance: opstate}}, "channels": ...}``.
    Keyed operator state (``agg:``/``join:`` vertices) is split by
    ``stable_hash(key) % new_count``; control-replicated operators
    (``select:``/``router:`` vertices) are copied from shard 0; merged
    channel counts/results land on new shard 0 (the coordinator re-merges
    by summing counts and canonical-ordering results, so placement is
    arbitrary).
    """
    if not states:
        raise ValueError("no shard states to repartition")
    if new_count < 1:
        raise ValueError(f"need at least one shard, got {new_count}")
    donor_runtimes = [state["runtime"] for state in states]
    new_runtimes: List[Dict[str, Dict[int, Any]]] = [
        {} for _ in range(new_count)
    ]
    for vertex, per_index in donor_runtimes[0].items():
        for instance in per_index:
            if vertex.startswith("agg:"):
                split = _split_agg_state(
                    [runtime[vertex][instance] for runtime in donor_runtimes],
                    new_count,
                )
            elif vertex.startswith("join:"):
                split = _split_join_state(
                    [runtime[vertex][instance] for runtime in donor_runtimes],
                    new_count,
                )
            elif vertex.startswith("select:"):
                split = _split_select_state(
                    [runtime[vertex][instance] for runtime in donor_runtimes],
                    new_count,
                )
            else:
                donor = donor_runtimes[0][vertex][instance]
                split = [copy.deepcopy(donor) for _ in range(new_count)]
            for dest in range(new_count):
                new_runtimes[dest].setdefault(vertex, {})[instance] = split[
                    dest
                ]
    merged_channels = merge_channel_snapshots(
        [state["channels"] for state in states], retain_results
    )
    outputs: List[dict] = []
    for dest in range(new_count):
        outputs.append(
            {
                "runtime": new_runtimes[dest],
                "channels": merged_channels if dest == 0 else _empty_channels(),
            }
        )
    return outputs
