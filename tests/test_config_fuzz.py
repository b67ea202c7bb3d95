"""Property test of the config contract: a field of the wrong JSON type is a
config error (exit 2), never a traceback or a run."""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sbqs.cli import main
from sbqs.config import validate_config

SCALARS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(),
    "float": st.floats(),
    "string": st.text(max_size=8),
}
JSON_TYPES = {
    **SCALARS,
    "list": st.lists(st.one_of(*SCALARS.values()), max_size=3),
    "object": st.dictionaries(st.text(max_size=5), st.one_of(*SCALARS.values()), max_size=3),
}
NUMBER = {"int", "float"}

#: Tiny valid configs that set every field; fields under "terms" use the Pauli one.
ISING = {
    "model": {"model": "ising", "n": 2, "J": 1.0, "B": 1.0, "boundary": "open"},
    "decomposition": "ising-local",
    "beta_grid": [0.0, 0.5],
    "n_steps": 10,
    "strategy": "A",
    "mode": "effective",
    "trials": 10,
    "seed": 0,
    "epsilon": 0.2,
    "degeneracy_tol": 1e-10,
    "out_dir": "out",
    "parallel": 1,
}
PAULI = {
    **ISING,
    "model": {"model": "pauli", "n": 2, "terms": [{"string": "ZZ", "coeff": 1.0}]},
    "decomposition": "pauli-generic",
}

#: Each field of those configs, as a path, and the JSON types it takes.
FIELD_TYPES = {
    ("model",): {"object"},
    ("decomposition",): {"string"},
    ("beta_grid",): {"list"},
    ("n_steps",): {"int"},
    ("strategy",): {"string"},
    ("mode",): {"string"},
    ("trials",): {"int"},
    ("seed",): {"int"},
    ("epsilon",): NUMBER,
    ("degeneracy_tol",): NUMBER,
    ("out_dir",): {"string"},
    ("parallel",): {"int"},
    ("model", "model"): {"string"},
    ("model", "n"): {"int"},
    ("model", "J"): NUMBER,
    ("model", "B"): NUMBER,
    ("model", "boundary"): {"string"},
    ("model", "terms"): {"list"},
    ("model", "terms", 0): {"object"},
    ("model", "terms", 0, "string"): {"string"},
    ("model", "terms", 0, "coeff"): NUMBER,
}


def test_base_configs_are_valid():
    validate_config(ISING)
    validate_config(PAULI)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_wrong_json_type_is_a_config_error(data):
    path = data.draw(st.sampled_from(sorted(FIELD_TYPES, key=str)), label="field")
    kind = data.draw(st.sampled_from(sorted(set(JSON_TYPES) - FIELD_TYPES[path])), label="type")
    value = data.draw(JSON_TYPES[kind], label="value")
    with tempfile.TemporaryDirectory() as tmp:
        raw = copy.deepcopy(PAULI if "terms" in path else ISING)
        raw["out_dir"] = str(Path(tmp) / "out")
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        config_path = Path(tmp) / "config.json"
        config_path.write_text(json.dumps(raw))
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a relative out_dir would land here
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["run", str(config_path)])
        finally:
            os.chdir(cwd)
        assert code == 2, err.getvalue()
        assert "config error" in err.getvalue() and "Traceback" not in err.getvalue()
        assert list(Path(tmp).iterdir()) == [config_path]
