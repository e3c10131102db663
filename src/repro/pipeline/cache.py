"""The process-wide memory tier every in-process compile shares.

The cache itself is :class:`repro.storage.memory.MemoryTier` (three
LRU sections: whole compile results, exec'd module artifacts, per-unit
pass artifacts), the first tier of every
:class:`~repro.storage.tiered.TieredStore` the driver builds. This
module holds the one shared instance, :data:`GLOBAL_CACHE`.

Keys are pure content hashes — compiling the *same text* through two
different ``Program`` objects hits the same entry. The memory layer
keys results on ``(source hash, full options hash)``; the disk and
peer layers below it key on the output-options hash (see
:mod:`repro.storage`).
"""

from repro.storage.memory import MemoryTier

#: The process-wide memory tier every driver-level compile shares.
GLOBAL_CACHE = MemoryTier()
