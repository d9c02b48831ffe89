"""Keyed state plane: pluggable state stores for the shared aggregations.

This package is the storage subsystem behind the shared aggregations'
keyed state:

* :mod:`repro.store.backend` — the :class:`StateStore` interface with the
  in-memory default backend;
* :mod:`repro.store.lsm` — the out-of-core spill-to-disk LSM backend
  (append-only segment files + memtable + sparse index) that lets keyed
  state exceed RAM;
* :mod:`repro.store.spill` — dict-shaped slice-store views that let the
  shared operators spill per-slice accumulator maps through one LSM
  store without changing their data-path code shape.
"""

from repro.store.backend import (
    STATE_BACKENDS,
    MemoryStateStore,
    StateStore,
    make_state_store,
)
from repro.store.lsm import LSMStateStore, materialize_checkpoint
from repro.store.spill import SpilledSliceStore, SpillingStoreHost

__all__ = [
    "STATE_BACKENDS",
    "StateStore",
    "MemoryStateStore",
    "LSMStateStore",
    "make_state_store",
    "materialize_checkpoint",
    "SpilledSliceStore",
    "SpillingStoreHost",
]
