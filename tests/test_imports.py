"""The libraries each path loads, checked by module name in fresh interpreters.

scipy.optimize serves only nsdp, scipy.sparse only the SDP solver, and
jsonschema only the wording of a rejected problem document, so each loads on
the first call that needs it.  Module names do not drift with the host's
speed, as start-up times do.
"""

import json

import pytest

from conftest import run_python

DEFERRED = ("scipy.optimize", "scipy.sparse", "jsonschema")

LOADED = """
import json, sys
{before}
seen = set(sys.modules)
{path}
print(json.dumps(sorted(set(sys.modules) - seen)))
"""

PARSE = """
from frameopt.problems import cantilever, problem_from_dict, problem_to_dict
gs = problem_from_dict(problem_to_dict(cantilever({n})))
"""

REQUESTS = PARSE.format(n=3) + """
from frameopt.analysis import compliance
from frameopt.cli import run_method
from frameopt.render import render_svg
compliance(gs, [0.1 / 3] * 3)
render_svg(gs, run_method(gs, "oc").areas)
"""

METHOD = PARSE + """
from frameopt.cli import run_method
run_method(gs, "{method}")
"""


def loaded(path: str, before: str = "") -> set[str]:
    """The modules that `path` adds to a fresh interpreter after `before`."""
    run = run_python("-c", LOADED.format(before=before, path=path))
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout))


def test_import_adds_only_frameopt_over_numpy_and_scipy_linalg():
    assert not any(name in loaded("import frameopt") for name in DEFERRED)
    added = loaded("import frameopt", before="import numpy, scipy.linalg")
    assert {name.split(".")[0] for name in added} == {"frameopt"}, sorted(added)


@pytest.mark.parametrize("path, loads, not_loads", [
    (REQUESTS, (), DEFERRED),
    (METHOD.format(n=3, method="nlp"), (), DEFERRED),
    (METHOD.format(n=1, method="po"), ("scipy.sparse",), ("scipy.optimize", "jsonschema")),
    (METHOD.format(n=3, method="nsdp"), ("scipy.optimize",), ("jsonschema",)),
], ids=["requests", "nlp", "po", "nsdp"])
def test_each_path_loads_only_what_it_calls(path, loads, not_loads):
    modules = loaded("import frameopt\n" + path)
    assert all(name in modules for name in loads)
    assert not any(name in modules for name in not_loads)
