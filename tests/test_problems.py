"""Problem-file round trips, shipped data files, and the benchmark registry."""

import copy
import json
import math
import random
import re
from importlib import resources

import jsonschema
import pytest

from conftest import make_cantilever, make_girder, make_ten_beam, run_python, save_problem
from frameopt import model, problems
from frameopt.analysis import compliance
from frameopt.cli import run_method
from frameopt.model import (
    SECTION_COEFFICIENTS,
    FrameAssembly,
    MechanismError,
    ModelError,
    require_valid,
    uniform_design,
)
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
    "bool-coordinate": lambda d: d["nodes"][1].update(x=True),
    "fractional-id": lambda d: d["nodes"][1].update(id=2.5),
    "no-nodes": lambda d: d.update(nodes=[]),
    "zero-volume": lambda d: d.update(volume_bound=0),
    "unknown-load-type": lambda d: d["loads"][0].update(type="Force"),
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
    doc = problem_to_dict(cantilever(3))
    gs = problem_from_dict(doc)
    result = _request(kind, gs)
    if kind == "optimize":
        assert result.status == "converged"
        assert result.verified_compliance is not None
    assert counts == {"assembly": 1, "check": 1}
    # An equal document is the same structure: no second assembly or check.
    again = problem_from_dict(json.loads(json.dumps(doc)))
    assert again is gs
    _request(kind, again)
    assert counts == {"assembly": 1, "check": 1}
    # One load value, or only the name, makes a structure of its own.
    heavier = copy.deepcopy(doc)
    heavier["loads"][0]["fy"] *= 2.0
    for variant in (heavier, dict(doc, name="another")):
        other = problem_from_dict(variant)
        assert other is not gs and other != gs
    assert counts == {"assembly": 3, "check": 3}


def test_structure_table_evicts_the_least_recently_used():
    base = problem_to_dict(cantilever(1))
    docs = [dict(base, name=f"c-{k}")
            for k in range(problems.STRUCTURE_CACHE_SIZE + 1)]
    first, second = problem_from_dict(docs[0]), problem_from_dict(docs[1])
    for doc in docs[2:-1]:
        problem_from_dict(doc)
    # The table is full; a repeat makes docs[0] the most recently used.
    assert problem_from_dict(docs[0]) is first
    problem_from_dict(docs[-1])
    assert problems._interned.cache_info().currsize == problems.STRUCTURE_CACHE_SIZE
    assert problem_from_dict(docs[0]) is first
    evicted = problem_from_dict(docs[1])
    assert evicted is not second and evicted == second


def _twin_zero_signs(doc):
    doc["nodes"][0]["x"] = -0.0
    for node in doc["nodes"]:
        node["y"] = -0.0
    doc["loads"][-1]["m"] = -0.0


def _twin_float_ids(doc):
    for item in doc["nodes"] + doc["elements"] + doc["supports"] + doc["loads"]:
        for key in ("id", "node"):
            if key in item:
                item[key] = float(item[key])
    for el in doc["elements"]:
        el["nodes"] = [float(n) for n in el["nodes"]]


@pytest.mark.parametrize("twin", [_twin_zero_signs, _twin_float_ids])
def test_equal_twins_parse_alike_in_either_order(twin):
    # -0.0 == 0.0 and 2.0 == 2, and each pair hashes alike: a twin must not
    # inherit the other's spelling from the table.
    plain = problem_to_dict(cantilever(3))
    plain["loads"].append({"type": "moment", "node": 2, "m": 0.0})
    other = copy.deepcopy(plain)
    twin(other)
    assert json.dumps(other) != json.dumps(plain)
    seen = set()
    for order in ((plain, other), (other, plain)):
        problems._interned.cache_clear()
        for doc in order:
            gs = problem_from_dict(copy.deepcopy(doc))
            result = compliance(gs, uniform_design(gs))
            oc = run_method(gs, "oc")
            seen.add((json.dumps(problem_to_dict(gs)), result.u.tobytes(),
                      result.compliance, oc.areas.tobytes(), oc.iterations))
    assert len(seen) == 1
    assert json.dumps(problem_to_dict(problem_from_dict(plain))) == json.dumps(plain)


def _fingerprint(kind, result):
    if kind == "analyze":
        return result.compliance, result.u.tobytes()
    if kind == "optimize":
        return (result.status, result.iterations, result.reason, result.compliance,
                result.verified_compliance, result.areas.tobytes())
    return result


@pytest.mark.parametrize("kind", ["analyze", "optimize", "render"])
def test_repeated_request_matches_a_cold_parse(kind):
    doc = problem_to_dict(girder())
    first = _request(kind, problem_from_dict(doc))
    repeated = problem_from_dict(copy.deepcopy(doc))
    again = _request(kind, repeated)
    problems._interned.cache_clear()
    cold = problem_from_dict(doc)
    assert cold is not repeated
    expected = _fingerprint(kind, _request(kind, cold))
    assert _fingerprint(kind, first) == expected
    assert _fingerprint(kind, again) == expected


def test_rejected_document_raises_alike_when_repeated():
    mechanism = problem_to_dict(cantilever(3))
    mechanism["supports"] = [{"node": 1, "ux": True}]
    invalid = dict(problem_to_dict(cantilever(3)), material="steel")
    for doc, error, text in ((mechanism, MechanismError, "kinematic mechanism"),
                             (invalid, ModelError, "problem file invalid at (root)")):
        raised = []
        for _ in range(2):
            with pytest.raises(error, match=re.escape(text)) as info:
                problem_from_dict(copy.deepcopy(doc))
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]


# -- the compiled schema check ---------------------------------------------------

def _base_documents():
    """The packaged documents and the document of every registry case."""
    data = resources.files("frameopt") / "data"
    docs = [json.loads(ref.read_text(encoding="utf-8"))
            for ref in sorted(data.iterdir(), key=lambda ref: ref.name)
            if ref.name.endswith(".json")]
    return docs + [problem_to_dict(case.build()) for case in build_benchmarks()]


def _sites(doc):
    """Every (container, key) pair that holds a value of the document."""
    sites, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in (node.keys() if isinstance(node, dict) else range(len(node))):
            sites.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return sites


_OPTIONAL_KEYS = {"name", "young_modulus", "section", "ux", "uy", "rot",
                  "fx", "fy", "scheme", "g"}
_VALID_LOADS = (
    {"type": "force", "node": 1, "fx": 0.5},
    {"type": "moment", "node": 2, "m": -1},
    {"type": "distributed", "elements": [1], "q": 2.0, "scheme": "lumped"},
    {"type": "self_weight", "rho": 0.5},
)
_EDGE_VALUES = (True, False, None, "x", "Force", "lumped", 0, -0.0, -1, 1, 2.0,
                2.5, math.nan, math.inf, -math.inf, [], {}, (1, 2), [1],
                {"c_i": 1.0}, {"type": "square", "c_i": 1.0})


def _retype_number(rng, holder, key):
    value = holder[key]
    if type(value) is int:
        holder[key] = float(value)
    elif type(value) is float and value.is_integer():
        holder[key] = int(value)
    else:
        return False
    return True


def _scale_number(rng, holder, key):
    if type(holder[key]) is not float:
        return False
    holder[key] *= rng.uniform(0.5, 2.0)
    return True


def _drop_optional(rng, holder, key):
    if not (isinstance(holder, dict) and key in _OPTIONAL_KEYS):
        return False
    del holder[key]
    return True


def _flip_flag(rng, holder, key):
    if type(holder[key]) is not bool:
        return False
    holder[key] = not holder[key]
    return True


def _duplicate_entry(rng, holder, key):
    if not (isinstance(holder, list) and isinstance(holder[key], dict)):
        return False
    holder.insert(key, copy.deepcopy(holder[key]))
    return True


def _add_load(rng, holder, key):
    if key != "loads" or not isinstance(holder[key], list):
        return False
    holder[key].append(copy.deepcopy(rng.choice(_VALID_LOADS)))
    return True


def _swap_section(rng, holder, key):
    if key != "section":
        return False
    holder[key] = rng.choice([{"type": rng.choice(sorted(SECTION_COEFFICIENTS))},
                              {"c_i": rng.uniform(0.1, 3.0)}])
    return True


def _edge_value(rng, holder, key):
    holder[key] = copy.deepcopy(rng.choice(_EDGE_VALUES))
    return True


def _drop_key(rng, holder, key):
    if not isinstance(holder, dict):
        return False
    del holder[key]
    return True


def _extra_key(rng, holder, key):
    if not isinstance(holder[key], dict):
        return False
    holder[key]["extra"] = 1
    return True


def _list_to_tuple(rng, holder, key):
    if not isinstance(holder[key], list):
        return False
    holder[key] = tuple(holder[key])
    return True


def _empty_list(rng, holder, key):
    if not isinstance(holder[key], list):
        return False
    holder[key] = []
    return True


def _retype_load(rng, holder, key):
    if key != "type":
        return False
    holder[key] = rng.choice(["force", "moment", "distributed", "self_weight",
                              "Force", "square"])
    return True


# Edits that keep a valid document valid, and edits that mostly break it.
_KEEPING = (_retype_number, _scale_number, _drop_optional, _flip_flag,
            _duplicate_entry, _add_load, _swap_section)
_BREAKING = (_edge_value, _drop_key, _extra_key, _list_to_tuple, _empty_list,
             _retype_load)


def _mutate(text, rng):
    doc = json.loads(text)
    for _ in range(rng.randint(1, 3)):
        edits = _KEEPING if rng.random() < 0.5 else _BREAKING
        sites = _sites(doc)
        while not any(rng.choice(edits)(rng, *rng.choice(sites)) for _ in range(20)):
            pass
    return doc


def test_compiled_check_agrees_with_jsonschema_on_mutated_documents():
    rng = random.Random(20260)
    bases = _base_documents()
    # Fewer mutations of the long documents: jsonschema takes about 50 ms
    # on the 300-element cantilever.  Every base gets at least 20.
    weights = [1.0 / len(doc["elements"]) for doc in bases]
    counts = [max(20, round(20_000 * w / sum(weights))) for w in weights]
    assert sum(counts) >= 20_000
    valid = 0
    for base, count in zip(bases, counts):
        assert problems._is_valid_problem(base)
        text = json.dumps(base)
        for _ in range(count):
            doc = _mutate(text, rng)
            verdict = problems._is_valid_problem(doc)
            assert verdict == problems._validator().is_valid(doc), doc
            valid += verdict
    assert sum(counts) / 5 <= valid <= sum(counts) * 4 / 5


EDGE_DOCS = {
    "integral-float-id": (lambda d: d["nodes"][1].update(id=2.0), True),
    "fractional-id": (lambda d: d["nodes"][1].update(id=2.5), False),
    "bool-coordinate": (lambda d: d["nodes"][1].update(x=True), False),
    "nan-volume": (lambda d: d.update(volume_bound=math.nan), True),
    "infinite-modulus": (lambda d: d["elements"][0].update(young_modulus=math.inf),
                         True),
    "nan-section": (lambda d: d["elements"][0].update(section={"c_i": math.nan}),
                    True),
    "zero-volume": (lambda d: d.update(volume_bound=0), False),
    "negative-zero-volume": (lambda d: d.update(volume_bound=-0.0), False),
    "two-sections": (lambda d: d["elements"][1].update(
        section={"type": "square", "c_i": 1.0}), False),
    "capitalised-load": (lambda d: d["loads"][0].update(type="Force"), False),
    "tuple-nodes": (lambda d: d.update(nodes=tuple(d["nodes"])), False),
    "tuple-element-nodes": (lambda d: d["elements"][0].update(nodes=(1, 2)), False),
}


@pytest.mark.parametrize("name", sorted(EDGE_DOCS))
def test_compiled_check_edge_values(name):
    edit, expected = EDGE_DOCS[name]
    doc = _spoil(edit)
    assert problems._validator().is_valid(doc) is expected
    assert problems._is_valid_problem(doc) is expected


@pytest.mark.parametrize("schema", [{"pattern": "x"},
                                    {"type": "object", "additionalProperties": True},
                                    {"enum": [1, 2]}])
def test_compiling_an_unsupported_schema_raises(schema):
    with pytest.raises(ValueError, match="supported"):
        problems._compile_schema(schema)


VALID_PARSE = """
import json, sys
from importlib import resources
from frameopt.model import ModelError
from frameopt.problems import build_benchmarks, problem_from_dict, problem_to_dict

data = resources.files("frameopt") / "data"
docs = [json.loads(ref.read_text(encoding="utf-8"))
        for ref in sorted(data.iterdir(), key=lambda ref: ref.name)
        if ref.name.endswith(".json")]
docs += [problem_to_dict(case.build()) for case in build_benchmarks()]
for doc in docs:
    problem_from_dict(doc)
print(len(docs), "jsonschema" in sys.modules)
docs[0]["material"] = "steel"
try:
    problem_from_dict(docs[0])
except ModelError as exc:
    print(exc)
"""


def test_valid_parse_does_no_jsonschema_work():
    # A fresh interpreter: jsonschema is not imported until a document is
    # rejected, and the rejection then reads as it always has.
    run = run_python("-c", VALID_PARSE)
    assert run.returncode == 0, run.stderr
    parsed, rejected = run.stdout.splitlines()
    assert parsed == f"{len(_base_documents())} False"
    assert rejected == ("problem file invalid at (root): Additional properties "
                        "are not allowed ('material' was unexpected)")


def test_compiled_rejection_that_jsonschema_accepts_raises(monkeypatch):
    monkeypatch.setattr(problems, "_is_valid_problem", lambda doc: False)
    with pytest.raises(RuntimeError, match="compiled problem check"):
        problem_from_dict(problem_to_dict(cantilever(3)))


# -- non-finite numbers the schema lets through ----------------------------------

NON_FINITE = {
    "volume_bound": ("cantilever-3", lambda d, v: d.update(volume_bound=v),
                     "volume bound must be positive and finite"),
    "young_modulus": ("cantilever-3",
                      lambda d, v: d["elements"][1].update(young_modulus=v),
                      "element 2 has non-finite Young's modulus"),
    "c_i": ("cantilever-3", lambda d, v: d["elements"][1].update(section={"c_i": v}),
            "element 2 has non-finite section coefficient"),
    "fx": ("cantilever-3", lambda d, v: d["loads"][0].update(fx=v),
           "non-finite force at node 4"),
    "fy": ("cantilever-3", lambda d, v: d["loads"][0].update(fy=v),
           "non-finite force at node 4"),
    "m": ("tenbeam", lambda d, v: d["loads"][1].update(m=v),
          "non-finite moment at node 3"),
    "q": ("girder", lambda d, v: d["loads"][0].update(q=v),
          "non-finite distributed load on elements 1, 2, 3, 4, 5"),
    "rho": ("girder", lambda d, v: d["loads"][1].update(rho=v),
            "non-finite self-weight density or gravity"),
    "g": ("girder", lambda d, v: d["loads"][1].update(g=v),
          "non-finite self-weight density or gravity"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE))
def test_non_finite_number_rejected_by_the_model(field, value):
    name, edit, message = NON_FINITE[field]
    doc = problem_to_dict(BUILDERS[name]())
    edit(doc, value)
    # The schema lets NaN and infinity through, as jsonschema does.
    assert problems._is_valid_problem(doc)
    with pytest.raises(ModelError) as err:
        problem_from_dict(doc)
    assert str(err.value) == message
