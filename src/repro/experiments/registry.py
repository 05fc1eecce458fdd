"""Name-based registries for scenario runners, assemblers, and sweeps.

Three registries back the orchestration subsystem:

* **runners** — functions executing one scenario: ``fn(params) -> dict``
  (or ``fn(params, seed) -> dict`` to receive the scenario's deterministic
  seed).  The returned mapping must be JSON-representable; it becomes the
  store's record payload.
* **assemblers** — functions turning a sweep's scenario results back into
  a :class:`~repro.bench.harness.FigureResult`:
  ``fn(sweep, specs, results, **assembler_params)``.
* **sweeps** — named :class:`SweepDecl` declarations (the ported paper
  figures/ablations of :mod:`repro.experiments.sweeps`, plus any user
  registrations).  A declaration carries what ``repro list`` prints and a
  factory; :func:`get_sweep` builds the :class:`~repro.experiments.specs.SweepSpec`
  the first time it is asked for and memoizes it, so a command touching
  one sweep never builds the 2,592-scenario design-space grid.

Lookup is by plain string so specs stay declarative and picklable: worker
processes re-resolve names against their own imported registry.  The
runners and assemblers live in :mod:`repro.experiments.figures`, which
imports the whole simulation stack; it is imported on the first runner or
assembler lookup that misses, so listing, reporting and fully cached runs
never load it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping

from .specs import ScenarioSpec, SweepSpec

__all__ = [
    "SweepDecl",
    "runner",
    "assembler",
    "register_sweep",
    "declare_sweep",
    "get_runner",
    "get_assembler",
    "get_sweep",
    "list_sweeps",
    "list_declarations",
    "call_runner",
    "ensure_registered",
]


@dataclass(frozen=True)
class SweepDecl:
    """A sweep as ``repro list`` shows it, plus the factory that builds it.

    ``figure`` is the built sweep's ``assembler_params["figure"]`` and
    ``scenarios`` its ``len()``; building is deferred to :func:`get_sweep`.
    """

    name: str
    title: str
    figure: str
    description: str
    assembler: str
    scenarios: int
    factory: Callable[[], SweepSpec]

    @classmethod
    def of(cls, spec: SweepSpec) -> "SweepDecl":
        """The declaration of an already built sweep."""
        return cls(spec.name, spec.title,
                   spec.assembler_params.get("figure", ""),
                   spec.description, spec.assembler, len(spec),
                   lambda: spec)

    def __len__(self) -> int:
        return self.scenarios


RUNNERS: Dict[str, Callable[..., Mapping[str, Any]]] = {}
ASSEMBLERS: Dict[str, Callable[..., Any]] = {}
#: Every registered sweep name, built or not.
DECLARED: Dict[str, SweepDecl] = {}
#: Sweeps built so far (user registrations are built on arrival).
SWEEPS: Dict[str, SweepSpec] = {}

#: Runners whose declared signature accepts the scenario seed.
_SEEDED: Dict[str, bool] = {}


def runner(name: str) -> Callable[[Callable], Callable]:
    """Decorator: register a scenario runner under ``name``."""

    def deco(fn: Callable) -> Callable:
        if name in RUNNERS and RUNNERS[name] is not fn:
            raise ValueError(f"runner {name!r} already registered")
        n_params = len(inspect.signature(fn).parameters)
        if n_params not in (1, 2):
            raise TypeError(
                f"runner {name!r} must accept (params) or (params, seed)")
        RUNNERS[name] = fn
        _SEEDED[name] = n_params == 2
        return fn

    return deco


def assembler(name: str) -> Callable[[Callable], Callable]:
    """Decorator: register a result assembler under ``name``."""

    def deco(fn: Callable) -> Callable:
        if name in ASSEMBLERS and ASSEMBLERS[name] is not fn:
            raise ValueError(f"assembler {name!r} already registered")
        ASSEMBLERS[name] = fn
        return fn

    return deco


def _check_labels(spec: SweepSpec) -> SweepSpec:
    labels = [s.label for s in spec.scenarios]
    if len(set(labels)) != len(labels):
        dupes = sorted({x for x in labels if labels.count(x) > 1})
        raise ValueError(
            f"sweep {spec.name!r} has duplicate scenario labels: {dupes}")
    return spec


def register_sweep(spec: SweepSpec, overwrite: bool = False) -> SweepSpec:
    """Register a sweep for lookup by name (CLI, tests, cache tooling)."""
    if spec.name in DECLARED and not overwrite:
        raise ValueError(f"sweep {spec.name!r} already registered")
    SWEEPS[spec.name] = _check_labels(spec)
    DECLARED[spec.name] = SweepDecl.of(spec)
    return spec


def declare_sweep(decl: SweepDecl) -> SweepDecl:
    """Register a sweep by declaration; :func:`get_sweep` builds it."""
    if decl.name in DECLARED:
        raise ValueError(f"sweep {decl.name!r} already registered")
    DECLARED[decl.name] = decl
    return decl


def _load_figures() -> None:
    """Import the runners and assemblers (and the stack they run on)."""
    from . import figures  # noqa: F401  (import populates the registries)


def get_runner(name: str) -> Callable[..., Mapping[str, Any]]:
    if name not in RUNNERS:
        _load_figures()
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(
            f"unknown runner {name!r}; registered: {sorted(RUNNERS)}"
        ) from None


def get_assembler(name: str) -> Callable[..., Any]:
    if name not in ASSEMBLERS:
        _load_figures()
    try:
        return ASSEMBLERS[name]
    except KeyError:
        raise KeyError(
            f"unknown assembler {name!r}; registered: {sorted(ASSEMBLERS)}"
        ) from None


def get_sweep(name: str) -> SweepSpec:
    """The sweep registered as ``name``, built on first request."""
    ensure_registered()
    spec = SWEEPS.get(name)
    if spec is None:
        try:
            decl = DECLARED[name]
        except KeyError:
            raise KeyError(
                f"unknown sweep {name!r}; registered: {sorted(DECLARED)}"
            ) from None
        spec = SWEEPS[name] = _check_labels(decl.factory())
    return spec


def list_sweeps() -> List[SweepSpec]:
    """Every registered sweep, built, in name order."""
    ensure_registered()
    return [get_sweep(name) for name in sorted(DECLARED)]


def list_declarations() -> List[SweepDecl]:
    """Every registered sweep's declaration, in name order (builds none)."""
    ensure_registered()
    return [DECLARED[name] for name in sorted(DECLARED)]


def call_runner(spec: ScenarioSpec) -> Mapping[str, Any]:
    """Execute one scenario through its registered runner."""
    fn = get_runner(spec.runner)
    if _SEEDED[spec.runner]:
        return fn(spec.params, spec.stable_seed())
    return fn(spec.params)


_registered = False
_registering = False


def ensure_registered() -> None:
    """Declare the built-in figure/ablation sweeps (idempotent).

    Imports only :mod:`repro.experiments.sweeps` — the declarations and
    their factories — never the runners: no sweep is built and no
    simulator module is loaded.  Worker processes call this on startup
    so name lookup works no matter which module spawned them.  The
    done-flag is only set once the import *succeeds*: a failed import
    propagates its real error again on the next call instead of leaving
    an empty registry behind.
    """
    global _registered, _registering
    if _registered or _registering:
        return
    _registering = True
    try:
        from . import sweeps  # noqa: F401  (import declares the sweeps)
        _registered = True
    finally:
        _registering = False
