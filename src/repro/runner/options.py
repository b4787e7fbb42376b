"""Typed, frozen option objects for the ``repro.run()`` front door.

:class:`RunOptions` captures everything ``repro.run`` accepts besides
the application itself — case selection, harness knobs (parallel,
cache), seed/preset/override configuration, observability switches —
as one frozen, reusable value::

    import repro

    opts = repro.RunOptions(cases=("normal", "active"), parallel=4,
                            cache=True, seed=7,
                            overrides={"num_switch_cpus": 4},
                            params={"scale": 0.25})
    result = repro.run("grep", opts)            # or options=opts

This is the canonical calling convention (docs/api.md); bare keyword
arguments remain supported as a thin compatibility wrapper that builds
the same :class:`RunOptions` internally.  The service side's analogue
is :class:`repro.traffic.ServiceSpec` for ``repro.serve()``.

Like :class:`~repro.runner.AppSpec`, dict-valued inputs (``overrides``,
``params``) are normalized to sorted key/value tuples so equal content
always compares equal and the object stays hashable whenever its
values are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple


def _as_items(value, label: str) -> Tuple[Tuple[str, object], ...]:
    """Normalize a dict (or item-tuple) field to sorted item tuples."""
    if value is None:
        return ()
    if isinstance(value, dict):
        return tuple(sorted(value.items()))
    items = tuple((str(k), v) for k, v in value)
    return tuple(sorted(items))


@dataclass(frozen=True)
class RunOptions:
    """Everything ``repro.run`` accepts, minus the application.

    ``None`` for ``parallel``/``cache``/``show_progress`` means "use
    the :func:`repro.configure` process-wide default", exactly like the
    keyword form.  ``params`` holds app constructor parameters (e.g.
    ``scale``); ``overrides`` holds flat
    :class:`~repro.cluster.ClusterConfig` field overrides.
    """

    cases: Optional[Tuple[str, ...]] = None
    parallel: Optional[int] = None
    cache: object = None
    seed: Optional[int] = None
    preset: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()
    name: Optional[str] = None
    show_progress: Optional[bool] = None
    trace: object = None
    profile: bool = False
    params: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.cases is not None and not isinstance(self.cases, tuple):
            object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(self, "overrides",
                           _as_items(self.overrides, "overrides"))
        object.__setattr__(self, "params", _as_items(self.params, "params"))
        if self.parallel is not None and self.parallel < 1:
            raise ValueError(
                f"parallel must be >= 1, got {self.parallel}")

    def with_params(self, **params) -> "RunOptions":
        """A copy with extra app constructor parameters merged in."""
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=tuple(sorted(merged.items())))

    def replace(self, **changes) -> "RunOptions":
        """A copy with the given fields changed (dataclass ``replace``)."""
        return replace(self, **changes)


def make_run_options(options: Optional[RunOptions] = None,
                     cases: Optional[Sequence[str]] = None,
                     **kwargs) -> RunOptions:
    """Normalize the keyword calling convention into a RunOptions.

    ``options`` (or a RunOptions in the ``cases`` position) must stand
    alone: mixing a typed options object with loose keywords is an
    error, so a call site always has exactly one source of truth.
    """
    if isinstance(cases, RunOptions):
        if options is not None:
            raise TypeError("pass one RunOptions, not two")
        options, cases = cases, None
    if options is not None:
        # Absence is a keyword's default, tested by identity: ``seed=0``
        # and ``parallel=0`` equal False but were passed.
        loose = sorted(k for k, v in kwargs.items()
                       if not (v is None or v is False
                               or (type(v) in (dict, tuple) and not v)))
        if cases is not None or loose:
            raise TypeError(
                "pass parameters inside RunOptions, not alongside it "
                f"(got extra: {['cases'] if cases is not None else []} "
                f"{loose})")
        return options
    return RunOptions(cases=cases, **kwargs)
