"""Declarative, picklable benchmark descriptions.

The process-pool harness cannot ship closures to workers, so every
parallelizable (and cacheable) run is described by an :class:`AppSpec`:
the *name* of a registered application class plus its constructor
parameters, an optional technology ``preset``, and optional flat
:class:`~repro.cluster.ClusterConfig` field overrides.  A spec is
frozen, hashable, and canonically fingerprintable — two specs with the
same content always produce the same cache key and, by construction,
the same simulation.

Names resolve through :data:`APP_REGISTRY` (the paper's applications
are pre-registered); ``module:Class`` paths and
:func:`register_app` cover user-defined :class:`~repro.apps.StreamApp`
subclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import import_module
from typing import Dict, Optional, Tuple

#: name -> "module:Class" for every registered application.
APP_REGISTRY: Dict[str, str] = {
    "grep": "repro.apps.grep:GrepApp",
    "select": "repro.apps.select:SelectApp",
    "hashjoin": "repro.apps.hashjoin:HashJoinApp",
    "mpeg": "repro.apps.mpeg_filter:MpegFilterApp",
    "tar": "repro.apps.tar:TarApp",
    "sort": "repro.apps.sort:SortApp",
    "md5": "repro.apps.md5:Md5App",
    "reduce": "repro.apps.reduction:FabricReduceApp",
}

#: Workload scales keeping each paper artifact's wall-clock reasonable
#: (mirrors the experiment registry's default_scale values).
DEFAULT_SCALES: Dict[str, float] = {
    "select": 1 / 16,
    "hashjoin": 1 / 16,
    "sort": 1 / 64,
}


def register_app(name: str, path: str) -> None:
    """Register a custom ``module:Class`` application under ``name``."""
    if ":" not in path:
        raise ValueError(f"expected 'module:Class', got {path!r}")
    APP_REGISTRY[name] = path


@dataclass(frozen=True)
class AppSpec:
    """One application at one parameter point, ready to fan out.

    ``params`` and ``overrides`` are stored as sorted key/value tuples
    so equal content always compares (and fingerprints) equal; build
    one with :func:`make_spec` rather than by hand.
    """

    app: str
    params: Tuple[Tuple[str, object], ...] = ()
    preset: Optional[str] = None
    overrides: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        """Short human name for progress lines: ``md5[num_switch_cpus=4]``."""
        interesting = [f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in self.params if k != "scale"]
        suffix = f"[{','.join(interesting)}]" if interesting else ""
        return f"{self.app}{suffix}"

    def build(self):
        """Instantiate the application (runs workload preparation)."""
        return resolve_app(self.app)(**dict(self.params))

    def base_config(self, app=None):
        """The cell's base :class:`ClusterConfig` (before case selection).

        Derived from the app's own configuration, then the preset (which
        keeps the app-owned topology/cache fields, exactly like
        ``python -m repro.apps --preset``), then the flat overrides.
        """
        app = self.build() if app is None else app
        config = app.cluster_config()
        if self.preset is not None:
            from ..cluster.presets import get_preset
            config = replace(
                get_preset(self.preset),
                num_hosts=config.num_hosts,
                num_storage=config.num_storage,
                num_switch_cpus=config.num_switch_cpus,
                database_scaled_caches=config.database_scaled_caches,
                cache_scale_divisor=config.cache_scale_divisor,
            )
        if self.overrides:
            config = replace(config, **dict(self.overrides))
        return config


def make_spec(app, preset: Optional[str] = None,
              overrides: Optional[dict] = None, **params) -> AppSpec:
    """Normalize ``app`` + constructor ``params`` into an :class:`AppSpec`.

    ``app`` may be a registered name, a ``module:Class`` path, an
    :class:`AppSpec` (returned as-is, with ``params`` forbidden), or an
    application class (registered implicitly by qualified name).
    """
    if isinstance(app, AppSpec):
        if params or preset or overrides:
            raise ValueError("pass parameters inside the AppSpec, "
                             "not alongside it")
        return app
    if isinstance(app, type):
        path = f"{app.__module__}:{app.__qualname__}"
        name = app.__qualname__
        APP_REGISTRY.setdefault(name, path)
        app = name if APP_REGISTRY[name] == path else path
    if not isinstance(app, str):
        raise TypeError(f"cannot make a spec from {app!r}")
    return AppSpec(
        app=app,
        params=tuple(sorted(params.items())),
        preset=preset,
        overrides=tuple(sorted((overrides or {}).items())),
    )


def resolve_app(name: str):
    """Look up an application class by registered name or module path."""
    path = APP_REGISTRY.get(name, name)
    if ":" not in path:
        raise KeyError(
            f"unknown application {name!r}; known: {sorted(APP_REGISTRY)}")
    module_name, _, class_name = path.partition(":")
    module = import_module(module_name)
    cls = module
    for part in class_name.split("."):
        cls = getattr(cls, part)
    return cls


def paper_grid(scale: Optional[float] = None) -> Tuple[AppSpec, ...]:
    """The paper's nine-application evaluation grid.

    The seven stream benchmarks at their registry scales plus MD5 with
    two and four switch CPUs (Figure 17's multiprocessor points).  An
    explicit ``scale`` multiplies every default (``scale=1.0`` is the
    paper's own problem sizes).
    """
    factor = 1.0 if scale is None else scale
    specs = []
    for name in ("mpeg", "hashjoin", "select", "grep", "tar", "sort", "md5"):
        specs.append(make_spec(name, scale=DEFAULT_SCALES.get(name, 1.0) * factor))
    for cpus in (2, 4):
        specs.append(make_spec("md5", scale=1.0 * factor,
                               num_switch_cpus=cpus))
    return tuple(specs)
