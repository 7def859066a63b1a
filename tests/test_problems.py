"""Problem-file round trips, shipped data files, and the benchmark registry."""

import math

import jsonschema
import pytest

from conftest import make_cantilever, make_girder, make_ten_beam
from frameopt import model
from frameopt.analysis import compliance
from frameopt.cli import run_method
from frameopt.model import FrameAssembly, ModelError, require_valid, uniform_design
from frameopt.problems import (
    PROBLEM_SCHEMA,
    TIP_FX,
    TIP_FY,
    benchmark_case,
    build_benchmarks,
    cantilever,
    girder,
    load_problem,
    packaged_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    ten_beam,
)
from frameopt.render import render_svg

BUILDERS = {
    "cantilever-1": lambda: cantilever(1),
    "cantilever-3": lambda: cantilever(3),
    "cantilever-5": lambda: cantilever(5),
    "cantilever-7": lambda: cantilever(7),
    "tenbeam": ten_beam,
    "girder": girder,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_dict_round_trip_is_lossless(name):
    doc = problem_to_dict(BUILDERS[name]())
    again = problem_to_dict(problem_from_dict(doc))
    assert again == doc


@pytest.mark.parametrize("name", ["cantilever-3", "tenbeam", "girder"])
def test_file_round_trip_is_lossless(name, tmp_path):
    gs = BUILDERS[name]()
    path = tmp_path / f"{name}.json"
    save_problem(gs, path)
    assert problem_to_dict(load_problem(path)) == problem_to_dict(gs)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_packaged_data_matches_builders(name):
    packaged = packaged_problem(name)
    assert problem_to_dict(packaged) == problem_to_dict(BUILDERS[name]())


def test_builders_agree_with_independent_definitions():
    pairs = [
        (cantilever(3), make_cantilever(3)),
        (ten_beam(), make_ten_beam()),
        (girder(), make_girder(scheme="lumped")),
    ]
    for built, reference in pairs:
        assert problem_to_dict(built) == problem_to_dict(reference)


def test_tip_force_has_unit_magnitude():
    assert math.hypot(TIP_FX, TIP_FY) == pytest.approx(1.0, rel=1e-15)
    assert TIP_FY < 0.0


def test_duplicate_node_id_rejected():
    doc = problem_to_dict(cantilever(3))
    doc["nodes"][1]["id"] = doc["nodes"][0]["id"]
    with pytest.raises(ModelError):
        problem_from_dict(doc)


def test_unknown_top_level_key_rejected():
    doc = problem_to_dict(cantilever(3))
    doc["material"] = "steel"
    with pytest.raises(ModelError, match="problem file invalid"):
        problem_from_dict(doc)


def test_unknown_section_name_rejected():
    doc = problem_to_dict(cantilever(3))
    doc["elements"][0]["section"] = {"type": "hexagon"}
    with pytest.raises(ModelError, match="invalid at elements/0"):
        problem_from_dict(doc)


def test_custom_section_coefficient_survives():
    doc = problem_to_dict(cantilever(3))
    doc["elements"][0]["section"] = {"c_i": 58.0 / 27.0}
    gs = problem_from_dict(doc)
    assert gs.elements[0].c_i == pytest.approx(58.0 / 27.0)
    assert problem_to_dict(gs)["elements"][0]["section"] == {
        "type": "plate-girder"}


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "nodes": [,]\n}\n', encoding="utf-8")
    with pytest.raises(ModelError, match="line 2"):
        load_problem(path)


def test_mechanism_rejected_on_load():
    doc = problem_to_dict(cantilever(3))
    doc["supports"] = [{"node": 1, "ux": True}]  # free to rotate and drop
    with pytest.raises(ModelError):
        problem_from_dict(doc)


def test_packaged_unknown_name():
    with pytest.raises(ModelError, match="no packaged problem"):
        packaged_problem("mystery")


def test_cantilever_needs_an_element():
    with pytest.raises(ModelError):
        cantilever(0)


def test_registry_contents():
    cases = {c.name: c for c in build_benchmarks()}
    assert set(cases) == {
        "cantilever-1", "cantilever-3", "cantilever-5", "cantilever-7",
        "tenbeam", "girder", "cantilever-150", "cantilever-300",
    }
    for name in ("cantilever-150", "cantilever-300"):
        assert cases[name].methods == ("oc",)
    for name in ("cantilever-3", "tenbeam", "girder"):
        assert cases[name].methods == ("oc", "nlp", "nsdp", "po")
    assert cases["cantilever-3"].po_order == 2
    assert cases["cantilever-5"].po_order == 3
    assert cases["tenbeam"].expected["po"][2]["certified"]


def test_registry_cases_build_valid_structures():
    for case in build_benchmarks():
        gs = case.build()
        require_valid(gs)
        if case.name == "cantilever-300":
            assert gs.n_elements == 300


def test_benchmark_case_lookup():
    assert benchmark_case("tenbeam").name == "tenbeam"
    with pytest.raises(KeyError, match="unknown benchmark"):
        benchmark_case("bridge")


# -- the request path ------------------------------------------------------------

def test_problem_schema_is_valid_draft_2020_12():
    # The parser compiles its validator once and never re-checks the schema.
    jsonschema.Draft202012Validator.check_schema(PROBLEM_SCHEMA)


def _spoil(edit):
    doc = problem_to_dict(cantilever(3))
    edit(doc)
    return doc


INVALID_DOCS = {
    "bad-section": lambda d: d["elements"][0].update(section={"type": "hexagon"}),
    "two-sections": lambda d: d["elements"][1].update(
        section={"type": "square", "c_i": 1.0}),
    "bad-load": lambda d: d["loads"].append({"type": "force", "node": 2, "fz": 1.0}),
    "missing-key": lambda d: d.pop("volume_bound"),
    "wrong-type": lambda d: d["nodes"][2].update(x="zero"),
    "extra-property": lambda d: d.update(material="steel"),
    "short-element": lambda d: d["elements"][2].update(nodes=[3]),
}


@pytest.mark.parametrize("name", sorted(INVALID_DOCS))
def test_invalid_document_message_matches_one_shot_validation(name):
    doc = _spoil(INVALID_DOCS[name])
    # The text the one-shot jsonschema.validate path produces.
    with pytest.raises(jsonschema.ValidationError) as info:
        jsonschema.validate(doc, PROBLEM_SCHEMA)
    path = "/".join(str(p) for p in info.value.absolute_path) or "(root)"
    expected = f"problem file invalid at {path}: {info.value.message}"
    with pytest.raises(ModelError) as err:
        problem_from_dict(doc)
    assert str(err.value) == expected


def _request(kind, gs):
    if kind == "analyze":
        return compliance(gs, uniform_design(gs))
    if kind == "optimize":
        return run_method(gs, "oc")
    return render_svg(gs, uniform_design(gs))


@pytest.mark.parametrize("kind", ["analyze", "optimize", "render"])
def test_request_assembles_and_checks_once(kind, monkeypatch):
    # Parse, then one request on the parsed structure: the parse's assembly
    # and kinematic check serve the method, the analysis and cli._verify.
    counts = {"assembly": 0, "check": 0}
    init, check = FrameAssembly.__init__, model.validate

    def counting_init(self, gs):
        counts["assembly"] += 1
        init(self, gs)

    def counting_check(gs):
        counts["check"] += 1
        return check(gs)

    monkeypatch.setattr(FrameAssembly, "__init__", counting_init)
    monkeypatch.setattr(model, "validate", counting_check)
    gs = problem_from_dict(problem_to_dict(cantilever(3)))
    result = _request(kind, gs)
    if kind == "optimize":
        assert result.status == "converged"
        assert result.verified_compliance is not None
    assert counts == {"assembly": 1, "check": 1}
