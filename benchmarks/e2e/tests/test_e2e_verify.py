"""Output verification catches perturbed digests and broken invariants."""

import dataclasses
import json

import repro
import verify
from run import Checker
from workloads import WORKLOADS, Workload


def _cell_outputs():
    spec = repro.make_spec("grep", scale=1 / 32)
    app = spec.build()
    return {case: app.run_case(repro.runner.cell_config(
                repro.runner.Cell(spec=spec, case=case), app))
            for case in ("normal", "active")}


def test_perturbed_reference_digest_is_caught():
    outputs = _cell_outputs()
    reference = {name: verify.digest(out) for name, out in outputs.items()}
    assert Checker(Workload(), reference).check(outputs, {}) == reference

    flipped = "0" if reference["active"][0] != "0" else "1"
    reference["active"] = flipped + reference["active"][1:]
    checker = Checker(Workload(), reference)
    checker.check(outputs, {})
    assert (checker.attempted, checker.failed) == (2, 1)


def test_pass_that_differs_from_the_first_is_caught():
    outputs = _cell_outputs()
    checker = Checker(Workload(), None)
    checker.check(outputs, {})
    changed = dict(outputs, normal=dataclasses.replace(
        outputs["normal"], exec_ps=outputs["normal"].exec_ps + 1))
    checker.check(changed, {})
    assert (checker.attempted, checker.failed) == (4, 1)


def test_service_invariants_and_traced_twin():
    spec = repro.ServiceSpec(app="grep", case="active", rate_rps=2000.0,
                             duration_s=0.005)
    result = repro.serve(spec)
    assert list(verify.service_violations("p", result)) == []
    lost = dataclasses.replace(result, dropped=result.dropped + 1)
    assert len(list(verify.service_violations("p", lost))) == 1
    stuck = dataclasses.replace(result, completed=result.completed - 1)
    assert len(list(verify.service_violations("p", stuck))) == 1

    chaos = WORKLOADS["traced_chaos"]
    assert chaos.violations({"p/traced": result, "p": result}) == {}
    faster = dataclasses.replace(result, goodput_rps=result.goodput_rps + 1)
    assert list(chaos.violations({"p/traced": result, "p": faster})) == [
        "p/traced"]


def test_references_cover_both_seeds_with_the_same_ops():
    for name in WORKLOADS:
        with open(verify.reference_path(name), encoding="utf-8") as fh:
            seeds = json.load(fh)["seeds"]
        assert sorted(seeds) == ["0", "1"], name
        assert seeds["0"].keys() == seeds["1"].keys(), name
