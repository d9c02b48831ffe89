"""Changelogs and changelog-sets (paper §2.1.2, Figure 4, Equation 1).

A *changelog* records one batch of query creations and deletions.  Time
between two consecutive changelogs is an *epoch* (the paper's "time
slot"): changelog *k* ends epoch *k-1* and starts epoch *k*.

Each changelog carries a *changelog-set*: a bitset in which a set bit
means "the query at this position remains unchanged" and an unset bit
means "this position was deleted or re-assigned".  Bitwise operations
between tuples tagged in different epochs are only valid for positions
whose meaning did not change in between, so operators AND the tuples'
query-sets with the changelog-set covering the epoch range.

:class:`ChangelogTable` maintains the Equation 1 dynamic program::

    CL[i][j] = 1                      if i == j
    CL[i][j] = CL[i-1][j] & CL[i]     if i > j
    CL[i][j] = CL[j][i]               otherwise

where ``CL[i]`` is changelog *i*'s own changelog-set, extended to the
width of epoch *i* (slots that did not exist yet count as unchanged —
the changelog that creates them clears the bit, see
:func:`repro.core.bitset.extend_mask`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Dict, List, Tuple

from repro.core.bitset import extend_mask
from repro.core.query import Frozen, Query, is_frozen


@dataclass(frozen=True)
class QueryActivation(Frozen):
    """One query creation inside a changelog."""

    query: Query
    slot: int
    created_at_ms: int

    def holds_only_frozen(self) -> bool:
        return is_frozen(self.query)


@dataclass(frozen=True)
class QueryDeactivation(Frozen):
    """One query deletion inside a changelog."""

    query_id: str
    slot: int


@dataclass(frozen=True)
class Changelog(Frozen):
    """A batch of query-set changes, woven into the streams as a marker.

    ``sequence`` is the epoch this changelog *starts* (>= 1); epoch 0 is
    the empty workload before the first changelog.

    A checkpoint shares the live changelog object (see :class:`Frozen`),
    so its pickled state is the fields alone: the cached derivations
    below are recomputed on demand, and a checkpoint's bytes do not
    depend on which reader touched the changelog first.
    """

    sequence: int
    timestamp_ms: int
    created: Tuple[QueryActivation, ...] = ()
    deleted: Tuple[QueryDeactivation, ...] = ()
    width_after: int = 0

    def __post_init__(self) -> None:
        if self.sequence < 1:
            raise ValueError(f"changelog sequence starts at 1, got {self.sequence}")

    @cached_property
    def changed_slots(self) -> Tuple[int, ...]:
        """Slots whose meaning changes at this changelog.

        Cached: the dataclass is frozen, so the slot set is computed once
        per changelog instead of on every marker delivery.
        """
        slots = {activation.slot for activation in self.created}
        slots.update(deactivation.slot for deactivation in self.deleted)
        return tuple(sorted(slots))

    @cached_property
    def changelog_set(self) -> int:
        """The changelog-set mask: bit set = position unchanged.

        Cached for the same reason as :attr:`changed_slots` — every
        shared operator reads this on the marker hot path, and the mask
        of a frozen changelog can never change.
        """
        mask = (1 << self.width_after) - 1
        for slot in self.changed_slots:
            mask &= ~(1 << slot)
        return mask

    @cached_property
    def _holds_only_frozen(self) -> bool:
        # Walked once per changelog, not once per operator snapshot.
        return all(is_frozen(activation) for activation in self.created)

    def holds_only_frozen(self) -> bool:
        return self._holds_only_frozen

    def __getstate__(self) -> Dict[str, Any]:
        return {item.name: getattr(self, item.name) for item in fields(self)}

    @property
    def change_count(self) -> int:
        """Number of creations plus deletions in this batch."""
        return len(self.created) + len(self.deleted)

    def to_paper_string(self) -> str:
        """Render the changelog-set as in Figure 4b (slot 0 leftmost)."""
        mask = self.changelog_set
        return "".join(
            "1" if (mask >> slot) & 1 else "0" for slot in range(self.width_after)
        )


class ChangelogTable:
    """Per-epoch changelog-sets with the Equation 1 dynamic program.

    The table answers "which query positions kept their meaning between
    epoch *j* and epoch *i*" in amortised O(1) per query after an O(1)
    extension per new changelog, exactly the runtime structure of
    Figure 4c.
    """

    def __init__(self) -> None:
        self._changelogs: List[Changelog] = []
        self._widths: List[int] = [0]  # width of epoch 0
        # (i, j) -> mask, i >= j.  Filled by the DP on demand.
        self._memo: Dict[Tuple[int, int], int] = {}
        # (epoch, width) -> extended own mask.  The same changelog-set is
        # extended to the same target width every time a later epoch's
        # range crosses it, so the extension is memoized too.
        self._own_masks: Dict[Tuple[int, int], int] = {}

    # -- growth --------------------------------------------------------------

    def append(self, changelog: Changelog) -> None:
        """Register the changelog that starts epoch ``changelog.sequence``."""
        expected = len(self._changelogs) + 1
        if changelog.sequence != expected:
            raise ValueError(
                f"changelog out of order: expected sequence {expected}, "
                f"got {changelog.sequence}"
            )
        self._changelogs.append(changelog)
        self._widths.append(changelog.width_after)

    @property
    def current_epoch(self) -> int:
        """The newest epoch index."""
        return len(self._changelogs)

    def changelog_starting(self, epoch: int) -> Changelog:
        """The changelog that started ``epoch`` (epoch >= 1)."""
        if epoch < 1 or epoch > len(self._changelogs):
            raise IndexError(f"no changelog starts epoch {epoch}")
        return self._changelogs[epoch - 1]

    # -- Equation 1 ------------------------------------------------------------

    def cl_set(self, i: int, j: int) -> int:
        """Changelog-set of epoch ``i`` with respect to epoch ``j``.

        Bit *s* is set iff position *s* kept its meaning through every
        changelog in the half-open epoch range (min, max].  The result is
        sized to the width of the later epoch.
        """
        if i < j:
            i, j = j, i
        if i > self.current_epoch or j < 0:
            raise IndexError(
                f"epoch range ({j}, {i}] outside 0..{self.current_epoch}"
            )
        if i == j:
            return (1 << self._widths[i]) - 1
        cached = self._memo.get((i, j))
        if cached is not None:
            return cached
        width_i = self._widths[i]
        own = self._own_mask(i, width_i)
        previous = extend_mask(
            self.cl_set(i - 1, j), self._widths[i - 1], width_i
        )
        mask = previous & own
        self._memo[(i, j)] = mask
        return mask

    def _own_mask(self, epoch: int, width: int) -> int:
        """Changelog ``epoch``'s own set, extended to ``width`` (memoized)."""
        key = (epoch, width)
        cached = self._own_masks.get(key)
        if cached is None:
            changelog = self._changelogs[epoch - 1]
            cached = extend_mask(
                changelog.changelog_set, changelog.width_after, width
            )
            self._own_masks[key] = cached
        return cached

    def cl_set_brute_force(self, i: int, j: int) -> int:
        """Reference implementation: plain AND over the range (tests)."""
        if i < j:
            i, j = j, i
        width = self._widths[i]
        mask = (1 << width) - 1
        for epoch in range(j + 1, i + 1):
            changelog = self._changelogs[epoch - 1]
            mask &= extend_mask(
                changelog.changelog_set, changelog.width_after, width
            )
        return mask

    def shares_queries(self, i: int, j: int) -> bool:
        """True when the two epochs share at least one live position."""
        return self.cl_set(i, j) != 0

    # -- maintenance -------------------------------------------------------------

    def prune_memo_before(self, epoch: int) -> int:
        """Drop memo entries whose older endpoint precedes ``epoch``.

        Long experiments call this when slices older than the retention
        horizon are deleted; returns the number of entries dropped.
        """
        stale = [key for key in self._memo if key[1] < epoch]
        for key in stale:
            del self._memo[key]
        stale_own = [key for key in self._own_masks if key[0] < epoch]
        for key in stale_own:
            del self._own_masks[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._changelogs)
