"""Content-addressed result store: one SQLite file of JSON records.

Every record lives in ``<root>/records.sqlite``, in one table from
``key`` to record text, where ``key`` is the scenario's content hash
(spec + schema version, see :meth:`ScenarioSpec.key`).  The record text
is canonical JSON (sorted keys, compact), so it stays diffable and
greppable through :meth:`ResultStore.items`.  Every write is one SQLite
transaction, so parallel workers and concurrent CI jobs never observe a
torn record; :meth:`ResultStore.put_many` writes a whole batch of
records in one transaction.  Writes replace an existing row, which keeps
``--force`` re-runs overwriting their stale records.

The same store holds sweep-level records (assembled
:class:`~repro.bench.harness.FigureResult` payloads keyed by the sweep's
content hash), so a fully cached ``report`` never re-runs assembly inputs.

Rows that do not parse, carry another schema, or name another key or
runner than the lookup are misses, counted as ``store.corrupt``.  The
``sqlite3`` module is imported when a store is first touched, and reading
a store that does not exist yet never creates it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import (Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple,
                    Union)

from ..obs.metrics import get_metrics
from .specs import ScenarioSpec, SweepSpec, canonical_json

__all__ = ["RECORD_SCHEMA", "DEFAULT_CACHE_DIR", "ResultStore"]

RECORD_SCHEMA = "repro.experiments.record/v1"
DEFAULT_CACHE_DIR = ".repro-cache"

#: File name of the store inside its cache directory.
DB_NAME = "records.sqlite"

#: Seconds a writer waits for another process's transaction to finish.
_BUSY_TIMEOUT_S = 60.0

_UPSERT = "INSERT OR REPLACE INTO records (key, text) VALUES (?, ?)"


class ResultStore:
    """A SQLite file of content-addressed scenario/sweep result records."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        self._conn = None

    @property
    def path(self) -> Path:
        return self.root / DB_NAME

    # -- scenario records ----------------------------------------------

    def get(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """Cached result payload for ``spec``, or ``None`` on a miss.

        Unreadable, schema-mismatched or wrong-runner records count as
        misses (the scenario simply re-runs and overwrites them).
        """
        record = self._read(spec.key())
        if record is None:
            return None
        if record.get("runner") != spec.runner:
            _count_corrupt()
            return None
        return record.get("result")

    def put(self, spec: ScenarioSpec, result: Mapping[str, Any]
            ) -> Dict[str, Any]:
        """Store ``result`` for ``spec``; returns the full record."""
        record = _scenario_record(spec, result)
        self._write((record,))
        return record

    def put_many(self, items: Iterable[Tuple[ScenarioSpec,
                                             Mapping[str, Any]]]) -> None:
        """Store every ``(spec, result)`` pair in one transaction.

        ``items`` is consumed lazily: each record is encoded as the
        transaction writes it.
        """
        self._write(_scenario_record(spec, result) for spec, result in items)

    # -- sweep records (assembled FigureResult payloads) ---------------

    def get_sweep(self, sweep: SweepSpec) -> Optional[Dict[str, Any]]:
        """Cached assembled-figure payload for ``sweep``, if any."""
        record = self._read(sweep.key())
        if record is None:
            return None
        if record.get("sweep") != sweep.name:
            _count_corrupt()
            return None
        return record.get("figure")

    def put_sweep(self, sweep: SweepSpec, figure_payload: Mapping[str, Any]
                  ) -> Dict[str, Any]:
        """Store a sweep's assembled figure (JSON export) as its record."""
        record = {
            "schema": RECORD_SCHEMA,
            "key": sweep.key(),
            "sweep": sweep.name,
            "figure": dict(figure_payload),
        }
        self._write((record,))
        return record

    # -- bulk ----------------------------------------------------------

    def keys(self) -> Iterator[str]:
        for (key,) in self._select("SELECT key FROM records ORDER BY key"):
            yield key

    def items(self) -> Iterator[Tuple[str, str]]:
        """Every ``(key, record text)`` row, in key order."""
        return self._select("SELECT key, text FROM records ORDER BY key")

    def __len__(self) -> int:
        conn = self._connection(create=False)
        if conn is None:
            return 0
        return conn.execute("SELECT COUNT(*) FROM records").fetchone()[0]

    def clear(self) -> int:
        """Delete every record; returns the number removed."""
        conn = self._connection(create=False)
        if conn is None:
            return 0
        with conn:
            return conn.execute("DELETE FROM records").rowcount

    def close(self) -> None:
        """Close the database connection (reopened on the next access)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- plumbing ------------------------------------------------------

    def _connection(self, create: bool):
        """The open connection; ``None`` if the store does not exist and
        ``create`` is false."""
        if self._conn is None:
            if not self.path.is_file():
                if not create:
                    return None
                self._create()
            import sqlite3
            # IMMEDIATE takes the write lock when a write transaction
            # begins, so two writers queue on the busy timeout instead of
            # failing a lock upgrade.
            conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S,
                                   isolation_level="IMMEDIATE")
            conn.execute("PRAGMA synchronous=NORMAL")
            # A run writes or reads each record once, so a page cache
            # larger than the B-tree's upper levels only adds peak memory.
            conn.execute("PRAGMA cache_size=-256")
            self._conn = conn
        return self._conn

    def _create(self) -> None:
        """Build an empty store beside :attr:`path` and link it into
        place, so a racing creator finds no file or a complete one."""
        import sqlite3
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        os.close(fd)
        try:
            conn = sqlite3.connect(tmp)
            try:
                # WAL: readers never block the writer, and a commit appends
                # to the log instead of rewriting a rollback journal.  The
                # mode is stored in the file, so every connection uses it.
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("CREATE TABLE records "
                             "(key TEXT PRIMARY KEY, text TEXT NOT NULL)")
            finally:
                conn.close()
            try:
                os.link(tmp, self.path)
            except FileExistsError:
                pass
        finally:
            os.unlink(tmp)

    def _select(self, sql: str) -> Iterator[Tuple[Any, ...]]:
        conn = self._connection(create=False)
        return iter(()) if conn is None else conn.execute(sql)

    def _read(self, key: str) -> Optional[Dict[str, Any]]:
        conn = self._connection(create=False)
        if conn is None:
            return None
        row = conn.execute("SELECT text FROM records WHERE key = ?",
                           (key,)).fetchone()
        if row is None:
            return None
        text = row[0]
        m = get_metrics()
        if m.enabled:
            m.inc("store.reads")
            m.inc("store.read_bytes", len(text.encode("utf-8")))
        try:
            record = json.loads(text)
        except ValueError:
            record = None
        if (not isinstance(record, dict)
                or record.get("schema") != RECORD_SCHEMA
                or record.get("key") != key):
            _count_corrupt()
            return None
        return record

    def _write(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Upsert ``records`` (each names its own ``key``) in one
        transaction."""
        m = get_metrics()

        def rows() -> Iterator[Tuple[str, str]]:
            for record in records:
                text = canonical_json(record)
                if m.enabled:
                    m.inc("store.writes")
                    m.inc("store.write_bytes", len(text.encode("utf-8")))
                yield record["key"], text

        self._write_rows(rows())

    def _write_rows(self, rows: Iterable[Tuple[str, str]]) -> None:
        """Upsert raw ``(key, text)`` rows in one transaction."""
        conn = self._connection(create=True)
        with conn:
            conn.executemany(_UPSERT, rows)


def _scenario_record(spec: ScenarioSpec, result: Mapping[str, Any]
                     ) -> Dict[str, Any]:
    return {
        "schema": RECORD_SCHEMA,
        "key": spec.key(),
        "runner": spec.runner,
        "label": spec.label,
        "params": spec.params,
        "result": dict(result),
    }


def _count_corrupt() -> None:
    m = get_metrics()
    if m.enabled:
        m.inc("store.corrupt")
