"""The public API surface: everything advertised imports and works."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro.sim",
    "repro.mem",
    "repro.cpu",
    "repro.net",
    "repro.switch",
    "repro.io",
    "repro.cluster",
    "repro.apps",
    "repro.workloads",
    "repro.metrics",
    "repro.experiments",
    "repro.faults",
    "repro.runner",
    "repro.obs",
]


def test_version():
    assert repro.__version__ == "2.0.0"


@pytest.mark.parametrize("package", PACKAGES)
def test_subpackage_imports(package):
    module = importlib.import_module(package)
    assert module is not None


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


def test_top_level_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name)


def test_every_module_has_a_docstring():
    import pathlib
    root = pathlib.Path(repro.__file__).parent
    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        if not source.strip():
            continue
        first = source.lstrip()
        assert first.startswith('"""') or first.startswith("'''"), (
            f"{path} lacks a module docstring")


def test_public_classes_have_docstrings():
    from repro.cluster import ClusterConfig, ReadStream, System
    from repro.switch import ActiveSwitch, HandlerContext
    for cls in (ClusterConfig, ReadStream, System, ActiveSwitch,
                HandlerContext):
        assert cls.__doc__


def test_quickstart_snippet_from_readme():
    """The README's Python snippet must actually run."""
    result = repro.run("grep", scale=0.1)
    report = result.report()
    assert "grep" in report.performance()
    assert "n-HP" in report.breakdown()
    assert result.active_speedup > 0


def test_runner_exports_are_authoritative():
    for name in ("run", "run_many", "configure", "paper_grid", "make_spec",
                 "AppSpec", "ExperimentRunner", "ResultCache", "RunResult",
                 "TraceCollector", "Report"):
        assert name in repro.__all__, name
        assert hasattr(repro, name)
