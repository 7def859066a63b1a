"""Problem-file I/O and the canonical benchmark suite.

Ground structures round-trip through a small JSON document (schema below).
At import the schema dict is compiled into plain Python predicates, which
decide whether a document is valid.  jsonschema is imported, and walks a
document, only when that check rejects it, to word the error.
The benchmark registry builds the reference cases programmatically and pins
the frozen reference values their solutions are checked against; the same
definitions are shipped as data files so the CLI has something to chew on
out of the box.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources
from typing import Callable

from frameopt.model import (
    CIRCLE_SECTION,
    PLATE_GIRDER_SECTION,
    SECTION_COEFFICIENTS,
    SQUARE_SECTION,
    DistributedLoad,
    Element,
    GroundStructure,
    ModelError,
    NodalForce,
    NodalMoment,
    Node,
    SelfWeight,
    Support,
    require_valid,
)

_SCHEME = {"enum": ["consistent", "lumped"]}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["nodes", "elements", "supports", "loads", "volume_bound"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string"},
        "volume_bound": {"type": "number", "exclusiveMinimum": 0},
        "nodes": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "x", "y"],
                "additionalProperties": False,
                "properties": {"id": {"type": "integer"},
                               "x": {"type": "number"},
                               "y": {"type": "number"}},
            },
        },
        "elements": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id", "nodes"],
                "additionalProperties": False,
                "properties": {
                    "id": {"type": "integer"},
                    "nodes": {"type": "array", "minItems": 2, "maxItems": 2,
                              "items": {"type": "integer"}},
                    "young_modulus": {"type": "number", "exclusiveMinimum": 0},
                    "section": {
                        "oneOf": [
                            {"type": "object", "required": ["type"],
                             "additionalProperties": False,
                             "properties": {"type": {
                                 "enum": sorted(SECTION_COEFFICIENTS)}}},
                            {"type": "object", "required": ["c_i"],
                             "additionalProperties": False,
                             "properties": {"c_i": {"type": "number",
                                                    "exclusiveMinimum": 0}}},
                        ],
                    },
                },
            },
        },
        "supports": {
            "type": "array", "minItems": 1,
            "items": {
                "type": "object",
                "required": ["node"],
                "additionalProperties": False,
                "properties": {"node": {"type": "integer"},
                               "ux": {"type": "boolean"},
                               "uy": {"type": "boolean"},
                               "rot": {"type": "boolean"}},
            },
        },
        "loads": {
            "type": "array",
            "items": {
                "oneOf": [
                    {"type": "object", "required": ["type", "node"],
                     "additionalProperties": False,
                     "properties": {"type": {"const": "force"},
                                    "node": {"type": "integer"},
                                    "fx": {"type": "number"},
                                    "fy": {"type": "number"}}},
                    {"type": "object", "required": ["type", "node", "m"],
                     "additionalProperties": False,
                     "properties": {"type": {"const": "moment"},
                                    "node": {"type": "integer"},
                                    "m": {"type": "number"}}},
                    {"type": "object", "required": ["type", "elements", "q"],
                     "additionalProperties": False,
                     "properties": {"type": {"const": "distributed"},
                                    "elements": {"type": "array", "minItems": 1,
                                                 "items": {"type": "integer"}},
                                    "q": {"type": "number"},
                                    "scheme": _SCHEME}},
                    {"type": "object", "required": ["type", "rho"],
                     "additionalProperties": False,
                     "properties": {"type": {"const": "self_weight"},
                                    "rho": {"type": "number",
                                            "exclusiveMinimum": 0},
                                    "g": {"type": "number"},
                                    "scheme": _SCHEME}},
                ],
            },
        },
    },
}


def _is_integer(v) -> bool:
    if isinstance(v, float):
        return v.is_integer()
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, numbers.Number) and not isinstance(v, bool)


# JSON Schema's types as Draft202012Validator checks them: 2.0 is an
# integer, a bool is no number, and only a list is an array.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": _is_integer,
    "number": _is_number,
}

_KEYWORDS = {"$schema", "type", "required", "properties", "additionalProperties",
             "items", "minItems", "maxItems", "exclusiveMinimum", "oneOf", "enum",
             "const"}


def _compile_schema(schema: dict) -> Callable[[object], bool]:
    """Compile a JSON schema into a predicate: is a document valid under it?

    The predicate decides as ``Draft202012Validator.is_valid`` does, for the
    keywords ``PROBLEM_SCHEMA`` uses; any other keyword, an
    ``additionalProperties`` other than false and an ``enum`` or ``const``
    value that is not a string raise here.  Each keyword applies only to
    the instance types it constrains, as in JSON Schema.
    """
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise ValueError(f"schema keywords not supported: {sorted(unknown)}")
    checks = []
    if "type" in schema:
        checks.append(_TYPES[schema["type"]])
    if "required" in schema:
        required = frozenset(schema["required"])
        checks.append(lambda v: not isinstance(v, dict) or required <= v.keys())
    if "properties" in schema or "additionalProperties" in schema:
        if schema.get("additionalProperties", False) is not False:
            raise ValueError("only additionalProperties: false is supported")
        closed = "additionalProperties" in schema
        props = {key: _compile_schema(sub)
                 for key, sub in schema.get("properties", {}).items()}

        def check_properties(v):
            if isinstance(v, dict):
                for key, item in v.items():
                    check = props.get(key)
                    if check is None:
                        if closed:
                            return False
                    elif not check(item):
                        return False
            return True
        checks.append(check_properties)
    if "items" in schema:
        item_ok = _compile_schema(schema["items"])
        checks.append(lambda v: not isinstance(v, list) or all(map(item_ok, v)))
    if "minItems" in schema:
        low = schema["minItems"]
        checks.append(lambda v: not isinstance(v, list) or len(v) >= low)
    if "maxItems" in schema:
        high = schema["maxItems"]
        checks.append(lambda v: not isinstance(v, list) or len(v) <= high)
    if "exclusiveMinimum" in schema:
        bound = schema["exclusiveMinimum"]
        # "not v <= bound", not "v > bound": NaN passes, as in jsonschema.
        checks.append(lambda v: not _is_number(v) or not v <= bound)
    if "oneOf" in schema:
        branches = [_compile_schema(sub) for sub in schema["oneOf"]]
        checks.append(lambda v: sum(check(v) for check in branches) == 1)
    for keyword in ("enum", "const"):
        if keyword in schema:
            allowed = schema["enum"] if keyword == "enum" else [schema["const"]]
            if not all(isinstance(value, str) for value in allowed):
                raise ValueError(f"only string {keyword} values are supported")
            allowed = frozenset(allowed)
            checks.append(lambda v, allowed=allowed: isinstance(v, str) and v in allowed)

    if len(checks) == 1:
        return checks[0]

    def check_all(v):
        for check in checks:
            if not check(v):
                return False
        return True
    return check_all


# Compiled once, at import, so an unsupported keyword raises here.  A valid
# document is decided by the compiled predicate alone; jsonschema is
# imported, and its validator built, only to word a rejection.  The schema
# itself is checked against the 2020-12 meta-schema by the tests, not on
# every parse.
_is_valid_problem = _compile_schema(PROBLEM_SCHEMA)


@functools.cache
def _validator():
    """The jsonschema validator of PROBLEM_SCHEMA, built on first use."""
    import jsonschema

    return jsonschema.Draft202012Validator(PROBLEM_SCHEMA)


_SECTION_NAMES = {value: name for name, value in SECTION_COEFFICIENTS.items()}


def problem_to_dict(gs: GroundStructure) -> dict:
    """Lossless JSON-ready form of a ground structure."""
    doc: dict = {"name": gs.name} if gs.name else {}
    doc["volume_bound"] = gs.volume_bound
    doc["nodes"] = [{"id": n.id, "x": n.x, "y": n.y} for n in gs.nodes]
    doc["elements"] = []
    for el in gs.elements:
        entry: dict = {"id": el.id, "nodes": [el.node_a, el.node_b]}
        if el.young_modulus != 1.0:
            entry["young_modulus"] = el.young_modulus
        name = _SECTION_NAMES.get(el.c_i)
        entry["section"] = {"type": name} if name else {"c_i": el.c_i}
        doc["elements"].append(entry)
    doc["supports"] = []
    for sup in gs.supports:
        entry = {"node": sup.node}
        for dof in ("ux", "uy", "rot"):
            if getattr(sup, dof):
                entry[dof] = True
        doc["supports"].append(entry)
    doc["loads"] = []
    for load in gs.loads:
        if isinstance(load, NodalForce):
            doc["loads"].append({"type": "force", "node": load.node,
                                 "fx": load.fx, "fy": load.fy})
        elif isinstance(load, NodalMoment):
            doc["loads"].append({"type": "moment", "node": load.node,
                                 "m": load.m})
        elif isinstance(load, DistributedLoad):
            doc["loads"].append({"type": "distributed",
                                 "elements": list(load.elements),
                                 "q": load.q, "scheme": load.scheme})
        elif isinstance(load, SelfWeight):
            doc["loads"].append({"type": "self_weight", "rho": load.rho,
                                 "g": load.g, "scheme": load.scheme})
        else:
            raise ModelError(f"cannot serialize load of type {type(load).__name__}")
    return doc


def problem_from_dict(doc: dict) -> GroundStructure:
    """Validate against the schema and construct; kinematics checked too.

    The returned structure carries its checked assembly, so the methods and
    the analysis reuse it.
    """
    if not _is_valid_problem(doc):
        from jsonschema.exceptions import best_match

        error = best_match(_validator().iter_errors(doc))
        if error is None:
            raise RuntimeError("the compiled problem check rejected a document "
                               "that jsonschema accepts")
        path = "/".join(str(p) for p in error.absolute_path) or "(root)"
        raise ModelError(f"problem file invalid at {path}: {error.message}") from error
    nodes = [Node(n["id"], float(n["x"]), float(n["y"])) for n in doc["nodes"]]
    elements = []
    for el in doc["elements"]:
        section = el.get("section", {"type": "square"})
        c_i = (SECTION_COEFFICIENTS[section["type"]]
               if "type" in section else float(section["c_i"]))
        elements.append(Element(el["id"], el["nodes"][0], el["nodes"][1],
                                float(el.get("young_modulus", 1.0)), c_i))
    supports = [Support(s["node"], s.get("ux", False), s.get("uy", False),
                        s.get("rot", False)) for s in doc["supports"]]
    loads = []
    for ld in doc["loads"]:
        kind = ld["type"]
        if kind == "force":
            loads.append(NodalForce(ld["node"], float(ld.get("fx", 0.0)),
                                    float(ld.get("fy", 0.0))))
        elif kind == "moment":
            loads.append(NodalMoment(ld["node"], float(ld["m"])))
        elif kind == "distributed":
            loads.append(DistributedLoad(tuple(ld["elements"]), float(ld["q"]),
                                         ld.get("scheme", "consistent")))
        else:
            loads.append(SelfWeight(float(ld["rho"]), float(ld.get("g", 1.0)),
                                    ld.get("scheme", "consistent")))
    gs = GroundStructure(nodes, elements, supports, loads,
                         float(doc["volume_bound"]), doc.get("name", ""))
    require_valid(gs)
    return gs


def load_problem(path) -> GroundStructure:
    """Read and validate a JSON problem file."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelError(
                f"{path}: JSON parse error at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
    return problem_from_dict(doc)


def packaged_problem(name: str) -> GroundStructure:
    """Load one of the shipped problem files by case name."""
    # Resolved from the package itself: data/ has no __init__.py, and a
    # namespace package cannot be imported from a zipped install.
    ref = resources.files("frameopt") / "data" / f"{name}.json"
    try:
        text = ref.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ModelError(f"no packaged problem named {name!r}") from None
    return problem_from_dict(json.loads(text))


# Tip force of magnitude 1 pulling 30 degrees below the member axis; the
# closed-form compliance of the single-element case (100 + 7.5) pins both
# components.
TIP_FX = math.cos(math.radians(30.0))
TIP_FY = -math.sin(math.radians(30.0))


def cantilever(n_e: int, volume_bound: float = 0.1) -> GroundStructure:
    """Span-1 cantilever of n_e equal elements, clamped at the left end."""
    if n_e < 1:
        raise ModelError("cantilever needs at least one element")
    nodes = [Node(i + 1, i / n_e, 0.0) for i in range(n_e + 1)]
    elements = [Element(i + 1, i + 1, i + 2, 1.0, SQUARE_SECTION)
                for i in range(n_e)]
    supports = [Support(1, ux=True, uy=True, rot=True)]
    loads = [NodalForce(n_e + 1, fx=TIP_FX, fy=TIP_FY)]
    return GroundStructure(nodes, elements, supports, loads, volume_bound,
                           f"cantilever-{n_e}")


def ten_beam() -> GroundStructure:
    """Ten circular-section beams on a 2x1 unit grid, clamped on the left.

    Both nodal moments act in the same (counterclockwise) sense; that pairing
    is what reproduces the reference local optimum near 1042 and the global
    one near 959.
    """
    coords = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    nodes = [Node(i + 1, float(x), float(y)) for i, (x, y) in enumerate(coords)]
    pairs = [(1, 2), (1, 5), (2, 3), (2, 4), (2, 5),
             (2, 6), (3, 5), (3, 6), (4, 5), (5, 6)]
    elements = [Element(i + 1, a, b, 1.0, CIRCLE_SECTION)
                for i, (a, b) in enumerate(pairs)]
    supports = [Support(1, True, True, True), Support(4, True, True, True)]
    loads = [NodalMoment(2, 1.0), NodalMoment(3, 2.0)]
    return GroundStructure(nodes, elements, supports, loads, 0.5, "tenbeam")


def girder() -> GroundStructure:
    """Half of a span-20 plate girder under uniform load plus self-weight.

    Left end pinned, midspan symmetry (u_x = rotation = 0).  Loads use the
    statically equivalent lumped discretization; that is the variant the
    frozen reference areas and compliances correspond to.
    """
    nodes = [Node(i + 1, 2.0 * i, 0.0) for i in range(6)]
    elements = [Element(i + 1, i + 1, i + 2, 1.0e4, PLATE_GIRDER_SECTION)
                for i in range(5)]
    supports = [Support(1, ux=True, uy=True), Support(6, ux=True, rot=True)]
    loads = [DistributedLoad(elements=(1, 2, 3, 4, 5), q=1.0, scheme="lumped"),
             SelfWeight(rho=3.0, g=1.0, scheme="lumped")]
    return GroundStructure(nodes, elements, supports, loads, 0.2, "girder")


@dataclass(frozen=True)
class BenchmarkCase:
    """One reference problem: builder, method list, and frozen expectations."""

    name: str
    builder: Callable[[], GroundStructure]
    methods: tuple[str, ...]
    po_order: int          # hierarchy depth that settles this case
    expected: dict
    nsdp_gentle: bool = False  # halve the penalty growth steps (serial chains)

    def build(self) -> GroundStructure:
        return self.builder()


def build_benchmarks() -> list[BenchmarkCase]:
    """The benchmark registry; expected values are frozen references."""
    local_methods = ("oc", "nlp", "nsdp", "po")
    cases = [
        BenchmarkCase(
            "cantilever-1", lambda: cantilever(1), local_methods, 1,
            {
                "compliance": 107.50, "areas": (0.100,),
                "po": {1: {"lower": 107.50, "upper": 107.50,
                           "certified": True}},
            }, nsdp_gentle=True),
        BenchmarkCase(
            "cantilever-3", lambda: cantilever(3), local_methods, 2,
            {
                "compliance": 80.302240,
                "areas": (0.141767, 0.102424, 0.055809),
                "po": {1: {"lower": 35.81, "upper": 80.72, "certified": False},
                       2: {"lower": 80.30, "upper": 80.30, "certified": True}},
            }, nsdp_gentle=True),
        BenchmarkCase(
            "cantilever-5", lambda: cantilever(5), local_methods, 3,
            {
                "compliance": 77.19,
                "areas": (0.151, 0.128, 0.103, 0.075, 0.043),
                "po": {2: {"lower": 76.34, "upper": 77.37, "certified": False},
                       3: {"lower": 77.19, "upper": 77.19, "certified": True}},
            }, nsdp_gentle=True),
        BenchmarkCase(
            "cantilever-7", lambda: cantilever(7), local_methods, 2,
            {
                # The order-3 relaxation of this case outgrows small machines;
                # the shipped depth stops at the order-2 bounds.
                "compliance": 76.23,
                "areas": (0.155, 0.139, 0.122, 0.104, 0.084, 0.061, 0.036),
                "po": {2: {"lower": 71.69, "upper": 77.02,
                           "certified": False}},
            }, nsdp_gentle=True),
        BenchmarkCase(
            "tenbeam", ten_beam, local_methods, 2,
            {
                # Local methods settle on the 1042 design (a2 = a5 = a7 = 0);
                # the certified global optimum is about 8% better.
                "compliance": 1042.2,
                "areas": None,
                "po": {2: {"lower": 959.32, "upper": 959.32,
                           "certified": True,
                           "zero_set": (2, 4, 6, 8, 10)}},
            }),
        BenchmarkCase(
            "girder", girder, local_methods, 3,
            {
                "compliance": 1372.2547,
                "areas": (0.009546, 0.017145, 0.022004, 0.024951, 0.026354),
                "nsdp": "infeasible-point",
                "po": {1: {"lower": 297.34, "upper": 1456.75,
                           "certified": False},
                       2: {"lower": 1286.44, "upper": 1426.05,
                           "certified": False},
                       3: {"lower": 1372.25, "upper": 1372.25,
                           "certified": True}},
            }),
        BenchmarkCase(
            "cantilever-150", lambda: cantilever(150), ("oc",), 0,
            {"profile": "monotone-tapered"}),
        BenchmarkCase(
            "cantilever-300", lambda: cantilever(300), ("oc",), 0,
            {"profile": "monotone-tapered"}),
    ]
    return cases


def benchmark_case(name: str) -> BenchmarkCase:
    for case in build_benchmarks():
        if case.name == name:
            return case
    known = ", ".join(c.name for c in build_benchmarks())
    raise KeyError(f"unknown benchmark {name!r}; choose from {known}")
