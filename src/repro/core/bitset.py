"""Query-set bitsets (paper §2.1.1).

AStream extends SharedDB's data model: every tuple carries the set of
query IDs potentially interested in it, encoded as a bitset — the
*query-set*.  Bit *i* corresponds to query slot *i* (slots are assigned by
:class:`repro.core.registry.QueryRegistry`).  Two tuples are joined or
aggregated together only if the bitwise AND of their query-sets is
non-zero, which is how redundant computation is avoided.

Hot paths inside the shared operators work on raw Python ints (arbitrary
precision makes them natural bitsets); :class:`QuerySet` is the typed,
immutable wrapper for the public API, tests, and display.  The paper
prints query-sets with slot 0 leftmost (e.g. Figure 3a: ``10`` means
"only Q1"); :meth:`QuerySet.to_paper_string` follows that convention.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List


class QuerySet:
    """An immutable set of query slots backed by an int bitset."""

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0) -> None:
        if bits < 0:
            raise ValueError(f"query-set bits must be non-negative, got {bits}")
        self._bits = bits

    # -- constructors --------------------------------------------------------

    @classmethod
    def of(cls, *slots: int) -> "QuerySet":
        """Build a query-set containing exactly ``slots``."""
        return cls.from_slots(slots)

    @classmethod
    def from_slots(cls, slots: Iterable[int]) -> "QuerySet":
        """Build a query-set from an iterable of slot indices."""
        bits = 0
        for slot in slots:
            if slot < 0:
                raise ValueError(f"slot indices must be non-negative, got {slot}")
            bits |= 1 << slot
        return cls(bits)

    @classmethod
    def from_paper_string(cls, text: str) -> "QuerySet":
        """Parse the paper's notation: slot 0 is the *leftmost* character."""
        bits = 0
        for slot, char in enumerate(text):
            if char == "1":
                bits |= 1 << slot
            elif char != "0":
                raise ValueError(f"invalid query-set string {text!r}")
        return cls(bits)

    @classmethod
    def all_of(cls, width: int) -> "QuerySet":
        """A query-set with the first ``width`` slots all set."""
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        return cls((1 << width) - 1)

    # -- accessors -----------------------------------------------------------

    @property
    def bits(self) -> int:
        """The raw int bitset (bit *i* ↔ slot *i*)."""
        return self._bits

    def contains(self, slot: int) -> bool:
        """Return True if ``slot`` is in this query-set."""
        return bool(self._bits >> slot & 1)

    def is_empty(self) -> bool:
        """True when no slot is set."""
        return self._bits == 0

    def count(self) -> int:
        """Number of slots set (population count)."""
        return self._bits.bit_count()

    def slots(self) -> List[int]:
        """The set slot indices in ascending order."""
        return list(self)

    def __iter__(self) -> Iterator[int]:
        return iter_slots(self._bits)

    # -- algebra -------------------------------------------------------------

    def intersect(self, other: "QuerySet") -> "QuerySet":
        """Bitwise AND — the queries shared by both sets (§2.1.1)."""
        return QuerySet(self._bits & other._bits)

    def union(self, other: "QuerySet") -> "QuerySet":
        """Bitwise OR."""
        return QuerySet(self._bits | other._bits)

    def minus(self, other: "QuerySet") -> "QuerySet":
        """Slots in self but not in other."""
        return QuerySet(self._bits & ~other._bits)

    def with_slot(self, slot: int) -> "QuerySet":
        """A copy with ``slot`` added."""
        if slot < 0:
            raise ValueError(f"slot indices must be non-negative, got {slot}")
        return QuerySet(self._bits | (1 << slot))

    def without_slot(self, slot: int) -> "QuerySet":
        """A copy with ``slot`` removed."""
        return QuerySet(self._bits & ~(1 << slot))

    def shares_any(self, other: "QuerySet") -> bool:
        """True if the two sets share at least one query."""
        return bool(self._bits & other._bits)

    __and__ = intersect
    __or__ = union
    __sub__ = minus

    # -- display / equality ----------------------------------------------------

    def to_paper_string(self, width: int) -> str:
        """Render as in the paper's figures: slot 0 leftmost."""
        return "".join(
            "1" if self.contains(slot) else "0" for slot in range(width)
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuerySet):
            return self._bits == other._bits
        if isinstance(other, int):
            return self._bits == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._bits)

    def __bool__(self) -> bool:
        return self._bits != 0

    def __repr__(self) -> str:
        return f"QuerySet({{{', '.join(map(str, self))}}})"


def iter_slots(bits: int) -> Iterator[int]:
    """The slots set in ``bits``, lowest first: one step per set bit,
    not per bit position."""
    while bits:
        low = bits & -bits
        bits ^= low
        yield low.bit_length() - 1


def extend_mask(mask: int, width: int, target_width: int) -> int:
    """Extend an *unchanged-bits* mask from ``width`` to ``target_width``.

    Changelog-set masks use "bit set = position unchanged" semantics
    (§2.1.2).  Slots that did not exist when a mask was generated must be
    treated as *unchanged* by that changelog — the changelog that later
    creates them clears the bit — so extension pads with ones.
    """
    if target_width < width:
        raise ValueError(
            f"cannot shrink mask from width {width} to {target_width}"
        )
    padding = ((1 << target_width) - 1) & ~((1 << width) - 1)
    return mask | padding
