"""Writable delta segment over a sealed base vector store.

The mutable dataset tier keeps every expensive artifact sealed: the base
segment stays the immutable (usually memory-mapped) store the index cache
produced, and all mutations land in a small in-memory *delta* — appended
unit-normalized rows for upserted images plus a tombstone set marking rows
(base or delta) that later mutations deleted.  :class:`DeltaVectorStore`
presents the pair as one store to the engine:

* ``score_all`` fills one global score column — the base segment through the
  base store's own (shard-stable, bit-identical) kernel, the delta rows
  through the same :func:`~repro.utils.linalg.dot_rows` kernel a rebuild
  would use — so the exhaustive engine path over a live view returns the
  exact bits a from-scratch rebuild of the merged dataset returns.
* ``search_arrays`` merges the base tier's candidates with an exact scan of
  the delta rows through :func:`~repro.vectorstore.base.deterministic_top_k`
  — the same merge rule that makes sharded results bit-identical to flat
  ones — with tombstoned rows masked out on both sides.

Deletes never touch the sealed bytes: a tombstoned row keeps its slot (and
its score, on the exhaustive path) but is dropped from the image→vector
segment mapping, so pooling never gathers it; the candidate path masks it
explicitly.  Compaction (:mod:`repro.live.merger`) folds base+delta into a
new sealed segment off the request path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import VectorStoreError
from repro.utils.linalg import (
    ZERO_NORM_EPSILON,
    dot_rows,
    ensure_dtype,
    normalize_rows,
    unit_norm_tolerance,
)
from repro.vectorstore.base import (
    VectorRecord,
    VectorStore,
    box_column,
    deterministic_top_k,
)


class DeltaLog:
    """Append-only delta columns shared by every live version over one base.

    Rows, box corners, scale levels and records of upserted patches are
    appended into capacity-doubling buffers (the ``FeedbackMap`` pattern);
    each published version's :class:`DeltaVectorStore` is a read-only
    *prefix* view of them.  Rows are never rewritten: an append writes past
    every published prefix, and a reallocation copies into fresh buffers
    while older versions keep the old ones, so a retained or pinned version
    stays bit-stable however the log grows.  The scale-level column covers
    the base rows too (copied once per base), so every version's full
    column is a prefix slice.  A merge starts a new log over the new base.
    """

    def __init__(self, base: VectorStore) -> None:
        self.base = base
        self.n_base = len(base)
        self.count = 0
        self.records: "list[VectorRecord]" = []
        self._rows = np.zeros((0, base.dim), dtype=base.compute_dtype)
        self._boxes = np.zeros((0, 4), dtype=np.float64)
        self._levels = np.array(base.scale_levels, dtype=np.int8)

    def append(
        self, vectors: np.ndarray, records: "Sequence[VectorRecord]"
    ) -> None:
        """Validate and append rows; only the new rows are checked.

        Every check runs before the first write, so a rejected append
        leaves the log untouched.
        """
        base = self.base
        dtype = base.compute_dtype
        rows = ensure_dtype(np.asarray(vectors), dtype)
        if rows.ndim != 2 or (rows.size and rows.shape[1] != base.dim):
            raise VectorStoreError(
                f"delta vectors must be (count x {base.dim}), got shape {rows.shape}"
            )
        if len(records) != rows.shape[0]:
            raise VectorStoreError(
                f"delta record count {len(records)} does not match delta "
                f"vector count {rows.shape[0]}"
            )
        start = self.n_base + self.count
        for offset, record in enumerate(records):
            if record.vector_id != start + offset:
                raise VectorStoreError(
                    "delta records must be ordered so record.vector_id equals "
                    "base length plus its delta row index"
                )
        added = rows.shape[0]
        if not added:
            return
        # The same canonical-row adoption the sealed store performs: rows
        # already unit (or zero) within the dtype's tolerance are kept
        # bit-exact, so a delta row embedded by the same deterministic
        # embedding a rebuild would run scores identically in both views.
        norms = np.linalg.norm(rows, axis=1)
        canonical = (np.abs(norms - 1.0) < unit_norm_tolerance(dtype)) | (
            norms < ZERO_NORM_EPSILON
        )
        if not bool(canonical.all()):
            rows = ensure_dtype(normalize_rows(rows), dtype)
        extents: "list[float]" = []
        for record in records:
            box = record.box
            extents += (box.x, box.y, box.width, box.height)
        boxes = box_column(extents)
        levels = np.fromiter(
            (record.scale_level for record in records), dtype=np.int8, count=added
        )
        end = self.count + added
        if end > self._rows.shape[0]:
            capacity = max(2 * self._rows.shape[0], end, 64)
            self._rows = _grown(self._rows, self.count, capacity)
            self._boxes = _grown(self._boxes, self.count, capacity)
            self._levels = _grown(self._levels, start, self.n_base + capacity)
        self._rows[self.count : end] = rows
        self._boxes[self.count : end] = boxes
        self._levels[start : start + added] = levels
        self.records.extend(records)
        self.count = end

    def view(
        self,
        parent: "DeltaVectorStore | None" = None,
        dead: "np.ndarray | None" = None,
    ) -> "DeltaVectorStore":
        """Publish the log's current prefix as a read-only store.

        The tombstone column is ``parent``'s (all clear without one),
        copied, with the ``dead`` vector ids set.
        """
        total = self.n_base + self.count
        tombstones = np.zeros(total, dtype=bool)
        if parent is not None:
            tombstones[: len(parent)] = parent.tombstones
        if dead is not None:
            tombstones[dead] = True
        return DeltaVectorStore._over(self, tombstones)


def _grown(column: np.ndarray, used: int, capacity: int) -> np.ndarray:
    """A fresh, larger buffer holding ``column``'s first ``used`` entries."""
    grown = np.empty((capacity,) + column.shape[1:], dtype=column.dtype)
    grown[:used] = column[:used]
    return grown


def _prefix(column: np.ndarray, stop: int) -> np.ndarray:
    view = column[:stop]
    view.setflags(write=False)
    return view


class DeltaVectorStore(VectorStore):
    """A sealed base store plus an append-only delta segment and tombstones.

    The base store may be any tier the service composes — exact, sharded,
    quantized, or graph-ANN; the delta sits *above* the tier stack, so a
    mutation never rebuilds a quantization or a graph adjacency (those
    rebuild at merge).  ``exhaustive`` is inherited from the base: a live
    view over an exhaustive base still full-scans (base kernel + delta
    kernel fill one column), a live view over a candidate store drives the
    base's candidate API and scans only the delta exactly.

    The live registry publishes versions through :meth:`DeltaLog.view`;
    constructing one directly builds a private log holding the given rows.
    """

    def __init__(
        self,
        base: VectorStore,
        delta_vectors: np.ndarray,
        delta_records: "list[VectorRecord]",
        tombstones: np.ndarray,
    ) -> None:
        # Deliberately does NOT call VectorStore.__init__: the base segment's
        # matrix is adopted by reference (it may be a shared mmap), never
        # copied or revalidated here.
        log = DeltaLog(base)
        log.append(delta_vectors, delta_records)
        self._adopt(log, np.array(tombstones, dtype=bool))

    @classmethod
    def _over(cls, log: DeltaLog, tombstones: np.ndarray) -> "DeltaVectorStore":
        store = cls.__new__(cls)
        store._adopt(log, tombstones)
        return store

    def _adopt(self, log: DeltaLog, tombstones: np.ndarray) -> None:
        """Freeze the log's current prefix (and a tombstone column) as this view."""
        base = log.base
        count = log.count
        total = log.n_base + count
        if tombstones.shape != (total,):
            raise VectorStoreError(
                f"tombstones must be a boolean column over all "
                f"{total} rows, got shape {tombstones.shape}"
            )
        tombstones.setflags(write=False)
        self._base = base
        self._log = log
        self._delta = _prefix(log._rows, count)
        self._delta_boxes = _prefix(log._boxes, count)
        self._scale_levels = _prefix(log._levels, total)
        self._delta_records = log.records
        self._tombstones = tombstones
        self._compute_dtype = base.compute_dtype
        # Instance attribute shadowing the class flag, the sharded-store
        # precedent: the live view is exactly as exhaustive as its base.
        self.exhaustive = bool(base.exhaustive)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> VectorStore:
        """The sealed base segment (whatever tier stack the service built)."""
        return self._base

    @property
    def log(self) -> DeltaLog:
        """The shared append-only log this version is a prefix of."""
        return self._log

    @property
    def delta_rows(self) -> int:
        """Unsealed rows appended since the base segment was sealed."""
        return self._delta.shape[0]

    @property
    def tombstones(self) -> np.ndarray:
        """Boolean tombstone column over all rows (read-only)."""
        return self._tombstones

    @property
    def tombstone_count(self) -> int:
        return int(np.count_nonzero(self._tombstones))

    @property
    def live_rows(self) -> int:
        """Rows that are neither tombstoned base nor tombstoned delta."""
        return len(self) - self.tombstone_count

    # ------------------------------------------------------------------
    # VectorStore surface (base accessors that assumed self._vectors)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._base) + self._delta.shape[0]

    @property
    def dim(self) -> int:
        return self._base.dim

    @property
    def vectors(self) -> np.ndarray:
        """The full matrix, materialised: a base-sized copy on every call.

        Its callers are whole-corpus consumers: index serialization
        (``repro.store.serialize``), the legacy engine parity oracle
        (``repro.engine.legacy``) and tests that compare a live view
        against a rebuild.  Scoring goes through the
        segment kernels below and training-set gathers through
        :meth:`take_rows`, so no session round pays this concatenation.
        """
        stacked = np.concatenate(
            [np.asarray(self._base.vectors), self._delta], axis=0
        )
        stacked.setflags(write=False)
        return stacked

    @property
    def boxes(self) -> np.ndarray:
        """The full box column, materialised (see :attr:`vectors`)."""
        stacked = np.concatenate([self._base.boxes, self._delta_boxes], axis=0)
        stacked.setflags(write=False)
        return stacked

    def take_rows(self, vector_ids: np.ndarray) -> np.ndarray:
        """Gather rows by splitting ids at the base length (no full matrix)."""
        return self._take_split(vector_ids, self._base.take_rows, self._delta)

    def take_boxes(self, vector_ids: np.ndarray) -> np.ndarray:
        """Gather box rows by splitting ids at the base length."""
        return self._take_split(vector_ids, self._base.take_boxes, self._delta_boxes)

    def _take_split(self, vector_ids, take_base, delta_column: np.ndarray) -> np.ndarray:
        ids = np.asarray(vector_ids, dtype=np.int64)
        n_base = len(self._base)
        in_base = ids < n_base
        if bool(in_base.all()):
            return take_base(ids)
        out = np.empty((ids.shape[0], delta_column.shape[1]), dtype=delta_column.dtype)
        out[in_base] = take_base(ids[in_base])
        out[~in_base] = delta_column[ids[~in_base] - n_base]
        return out

    @property
    def records(self) -> "tuple[VectorRecord, ...]":
        """All records, materialised: the base's plus this version's delta."""
        return self._base.records + tuple(self._delta_records[: self.delta_rows])

    def record(self, vector_id: int) -> VectorRecord:
        n_base = len(self._base)
        if 0 <= vector_id < n_base:
            return self._base.record(vector_id)
        if not n_base <= vector_id < len(self):
            raise VectorStoreError(f"Unknown vector id {vector_id}")
        return self._delta_records[vector_id - n_base]

    def vector(self, vector_id: int) -> np.ndarray:
        if not 0 <= vector_id < len(self):
            raise VectorStoreError(f"Unknown vector id {vector_id}")
        n_base = len(self._base)
        if vector_id < n_base:
            return self._base.vector(vector_id)
        return self._delta[vector_id - n_base].copy()

    def _share_vectors(self, vectors: np.ndarray) -> None:
        raise VectorStoreError(
            "DeltaVectorStore does not share its matrix; wrap the base store"
        )

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    def score_all(self, query: np.ndarray) -> np.ndarray:
        """One global score column: base kernel then delta kernel.

        Tombstoned rows keep their true scores — the segment mapping no
        longer references them, so pooling never reads those slots, and not
        branching here keeps the column bit-identical to a rebuild's (whose
        matrix simply lacks the rows).
        """
        query = self._check_query(query)
        out = np.empty(len(self), dtype=self._compute_dtype)
        n_base = len(self._base)
        out[:n_base] = self._base.score_all(query)
        if self._delta.shape[0]:
            out[n_base:] = dot_rows(self._delta, query)
        return out

    def score_many(self, queries: np.ndarray) -> np.ndarray:
        queries = self._check_queries(queries)
        out = np.empty((queries.shape[0], len(self)), dtype=self._compute_dtype)
        n_base = len(self._base)
        out[:, :n_base] = self._base.score_many(queries)
        if self._delta.shape[0]:
            out[:, n_base:] = queries @ self._delta.T
        return out

    def search_arrays(
        self,
        query: np.ndarray,
        k: int,
        exclude_mask: "np.ndarray | None" = None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Candidate merge: base tier's top-k + exact delta scan.

        The base segment answers through whatever candidate machinery it has
        (exact scan, int8 rerank, graph descent) with tombstoned base rows
        folded into its exclusion mask; the delta — small by construction —
        is always scanned exactly.  Both sides then merge through
        ``deterministic_top_k``, so over an exhaustive base the result is
        the exact global top-k a rebuild would return, bit for bit.
        """
        if k < 1:
            raise VectorStoreError(f"k must be >= 1, got {k}")
        query = self._check_query(query)
        n_base = len(self._base)
        n_delta = self._delta.shape[0]
        if exclude_mask is not None and exclude_mask.shape[0] != len(self):
            raise VectorStoreError(
                f"exclude_mask length {exclude_mask.shape[0]} does not match "
                f"store size {len(self)}"
            )
        base_mask = self._tombstones[:n_base]
        if exclude_mask is not None:
            base_mask = base_mask | exclude_mask[:n_base]
        base_ids, base_scores = self._base.search_arrays(
            query, k, exclude_mask=base_mask if base_mask.any() else None
        )
        if n_delta == 0:
            return base_ids.astype(np.int64, copy=False), base_scores
        delta_scores = dot_rows(self._delta, query)
        delta_mask = self._tombstones[n_base:]
        if exclude_mask is not None:
            delta_mask = delta_mask | exclude_mask[n_base:]
        if delta_mask.any():
            delta_scores[delta_mask] = -np.inf
        merged_ids = np.concatenate(
            [
                base_ids.astype(np.int64, copy=False),
                np.arange(n_base, n_base + n_delta, dtype=np.int64),
            ]
        )
        merged_scores = np.concatenate(
            [base_scores, delta_scores.astype(base_scores.dtype, copy=False)]
        )
        top = deterministic_top_k(merged_scores, merged_ids, k)
        top = top[np.isfinite(merged_scores[top])]
        return merged_ids[top], merged_scores[top]
