"""Declarative experiment specs: scenarios, sweeps, and parameter grids.

A :class:`ScenarioSpec` names a registered runner plus a JSON-able
parameter mapping; a :class:`SweepSpec` is an ordered collection of
scenarios plus the name of an assembler that turns their results into a
:class:`~repro.bench.harness.FigureResult`.  Both are frozen, hashable,
and serialize canonically, so a scenario's content hash (:meth:`key`) is
stable across processes and machines — the foundation of the
content-addressed result store.

Parameters are stored internally as a canonical JSON string (sorted keys,
no whitespace): that keeps the dataclass hashable, forces every parameter
to be JSON-representable (which the store needs anyway), and makes
equality independent of dict insertion order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "SCHEMA_VERSION",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ScenarioSpec",
    "SweepSpec",
    "canonical_json",
    "grid_params",
    "zip_params",
    "scenario",
    "sweep_with_backend",
    "sweep_with_algo",
]

#: Version of the scenario/record schema.  Bump whenever a change to the
#: simulation code or the spec layout invalidates previously cached
#: results; every cached key changes with it.  v2: scenario params carry a
#: canonical ``platform`` field (the hardware catalog axis).
SCHEMA_VERSION = 2

#: Evaluation engines a scenario can run under.  ``"sim"`` is the
#: discrete-event simulator; ``"analytic"`` the closed-form backend
#: (:mod:`repro.analytic`).  The backend travels as an ordinary scenario
#: parameter — and is therefore hashed into the store key — but the
#: default is *represented by absence*: a scenario with no ``backend``
#: parameter is a DES scenario with exactly the key it had before the
#: analytic backend existed, so default-path cached results and reports
#: stay byte-identical.
BACKENDS = ("sim", "analytic")
DEFAULT_BACKEND = "sim"


#: One shared encoder: ``json.dumps`` with non-default arguments builds a
#: new encoder on every call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """Canonical (sorted-key, compact) JSON encoding of ``value``."""
    return _CANONICAL_ENCODER.encode(value)


def _encode(params: Mapping[str, Any], where: str) -> str:
    """``canonical_json`` of a parameter mapping, encoded once; a value
    JSON cannot represent raises ``TypeError`` naming ``where``."""
    try:
        return canonical_json(dict(params))
    except (TypeError, ValueError) as exc:
        raise TypeError(
            f"{where} parameters must be JSON-representable: {exc}") from exc


@dataclass(frozen=True, order=True)
class ScenarioSpec:
    """One unit of work: a registered runner + its parameters.

    The optional ``backend`` parameter selects the evaluation engine
    (DES or analytic, see :data:`BACKENDS`); everything else describes
    the workload itself.
    """

    runner: str                 #: name in :data:`repro.experiments.registry.RUNNERS`
    params_json: str = "{}"     #: canonical JSON of the parameter mapping
    label: str = ""             #: display label (excluded from the key)

    @classmethod
    def make(cls, runner: str, label: str = "", **params: Any) -> "ScenarioSpec":
        return cls(runner=runner,
                   params_json=_encode(params, f"scenario {runner!r}"),
                   label=label)

    @property
    def params(self) -> Dict[str, Any]:
        return json.loads(self.params_json)

    def with_params(self, **overrides: Any) -> "ScenarioSpec":
        merged = self.params
        merged.update(overrides)
        return replace(self, params_json=_encode(
            merged, f"scenario {self.runner!r}"))

    def with_backend(self, backend: str) -> "ScenarioSpec":
        """Copy pinned to an evaluation engine (see :data:`BACKENDS`).

        Selecting :data:`DEFAULT_BACKEND` *removes* the parameter, so the
        round trip through any backend lands back on the original spec —
        and the original store key.
        """
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {BACKENDS}")
        params = self.params
        if backend == DEFAULT_BACKEND:
            params.pop("backend", None)
        else:
            params["backend"] = backend
        return replace(self, params_json=canonical_json(params))

    @property
    def backend(self) -> str:
        return self.params.get("backend", DEFAULT_BACKEND)

    def with_algo(self, algo: Optional[str]) -> "ScenarioSpec":
        """Copy pinned to a collective-algorithm schedule.

        ``algo`` is a :mod:`repro.collectives` name (or ``"auto"``);
        ``None`` — the default schedule — *removes* the parameter, so
        specs that never touched the algo axis keep exactly the store
        keys they had before it existed (the ``backend`` pattern).
        Names are validated by the runner (via the workload config)
        before anything executes or caches.
        """
        params = self.params
        if algo is None:
            params.pop("algo", None)
        else:
            params["algo"] = algo
        return replace(self, params_json=canonical_json(params))

    @property
    def algo(self) -> Optional[str]:
        return self.params.get("algo")

    def key(self) -> str:
        """Stable content hash of (schema version, runner, params).

        The label is display-only and deliberately excluded: renaming a
        scenario must not invalidate its cached result.

        The hashed text is ``canonical_json`` of ``{"params", "runner",
        "schema"}``; ``params_json`` is already canonical, so it is
        spliced in verbatim instead of being parsed and re-encoded.
        """
        record = ('{"params":' + self.params_json
                  + ',"runner":' + canonical_json(self.runner)
                  + ',"schema":' + str(SCHEMA_VERSION) + '}')
        return hashlib.sha256(record.encode("utf-8")).hexdigest()

    def stable_seed(self) -> int:
        """Deterministic per-scenario seed derived from the content hash.

        Identical across processes and runs; distinct scenarios get
        distinct seeds with overwhelming probability.  Runners that take a
        second positional argument receive this value.
        """
        return int(self.key()[:16], 16)


def scenario(runner: str, label: str = "", **params: Any) -> ScenarioSpec:
    """Shorthand for :meth:`ScenarioSpec.make`."""
    return ScenarioSpec.make(runner, label=label, **params)


@dataclass(frozen=True)
class SweepSpec:
    """A named, ordered collection of scenarios plus result assembly."""

    name: str
    title: str
    scenarios: Tuple[ScenarioSpec, ...] = ()
    assembler: str = "rows"         #: name in ``registry.ASSEMBLERS``
    assembler_params_json: str = "{}"
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))

    @classmethod
    def make(cls, name: str, title: str, scenarios, assembler: str = "rows",
             description: str = "", **assembler_params: Any) -> "SweepSpec":
        return cls(name=name, title=title, scenarios=tuple(scenarios),
                   assembler=assembler, description=description,
                   assembler_params_json=_encode(
                       assembler_params, f"sweep {name!r} assembler"))

    @property
    def assembler_params(self) -> Dict[str, Any]:
        return json.loads(self.assembler_params_json)

    def key(self) -> str:
        """Content hash of the whole sweep (scenario keys + assembly)."""
        record = canonical_json({
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "assembler": self.assembler,
            "assembler_params": self.assembler_params,
            "scenarios": [s.key() for s in self.scenarios],
        })
        return hashlib.sha256(record.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.scenarios)


def sweep_with_backend(sweep: "SweepSpec", backend: str) -> "SweepSpec":
    """The same sweep with every scenario pinned to ``backend``.

    Works on *any* sweep — registered or ad hoc — because every scenario
    runner dispatches on the ``backend`` parameter.  Choosing
    :data:`DEFAULT_BACKEND` strips the parameter, recovering the original
    sweep (and its cached results) exactly.
    """
    return replace(sweep, scenarios=tuple(s.with_backend(backend)
                                          for s in sweep.scenarios))


def sweep_with_algo(sweep: "SweepSpec", algo: Optional[str]) -> "SweepSpec":
    """The same sweep with every scenario pinned to collective schedule
    ``algo`` (``None`` strips the parameter, recovering the original
    sweep — and its cached results — exactly)."""
    return replace(sweep, scenarios=tuple(s.with_algo(algo)
                                          for s in sweep.scenarios))


def grid_params(**axes: Any) -> List[Dict[str, Any]]:
    """Cartesian product of parameter axes, in the given axis order.

    >>> grid_params(batch=(1, 2), tables=(64,))
    [{'batch': 1, 'tables': 64}, {'batch': 2, 'tables': 64}]

    Scalar (non-list/tuple) axis values are broadcast as constants.
    """
    names = list(axes)
    values = [v if isinstance(v, (list, tuple)) else (v,)
              for v in axes.values()]
    return [dict(zip(names, combo)) for combo in product(*values)]


def zip_params(**axes: Any) -> List[Dict[str, Any]]:
    """Zip parameter axes positionally (all must have equal length).

    >>> zip_params(batch=(512, 1024), tables=(64, 256))
    [{'batch': 512, 'tables': 64}, {'batch': 1024, 'tables': 256}]
    """
    names = list(axes)
    values = [list(v) for v in axes.values()]
    lengths = {len(v) for v in values}
    if len(lengths) > 1:
        raise ValueError(
            f"zip_params axes must have equal lengths, got "
            f"{ {n: len(v) for n, v in zip(names, values)} }")
    return [dict(zip(names, combo)) for combo in zip(*values)]
