"""README's Library example runs against the current API, its file formats
name every file a command writes with its header, and its config reference
names every key of the config schema tables, with each command parameter's
numeric default, and no command parameter that the schema lacks. Each
command, run at a small size, reads every key of its schema.

The block is executed as written, so a renamed function, a removed option
or a changed call form that the README still shows fails here.
"""

import argparse
import json
import re
from functools import partial
from pathlib import Path

import numpy as np

from thermomap.cli import (
    COMMANDS,
    CONFIG,
    DEFAULT_BUDGET,
    MAPS,
    OBSERVABLE,
    POTENTIALS,
    Experiment,
)
from thermomap.conformal import AtomicMeasure

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README has no python block under '## Library'"
    return match.group(1)


def test_library_example_runs_and_prints_its_closed_forms(capsys):
    exec(compile(library_block(), "README.md", "exec"), {})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    pressure = np.log(1.0 + np.exp(-1.0))
    entropy = pressure + np.exp(-1.0) / (1.0 + np.exp(-1.0))
    assert len(printed) == 3
    assert abs(printed[0] - pressure) <= 1e-6  # the commented values
    assert abs(printed[1] - entropy) <= 1e-3
    assert 0.0 < printed[2] < 1.0  # a geometric decay rate


# Each command at a size that runs in well under a second.
SMALL_PARAMS = {
    "pressure": {"n_max": 6},
    "entropy": {"n_max": 6},
    "conformal": {"n_max": 8},
    "equilibrium": {"n_max": 8, "tree_depth": 8},
    "correlations": {"n_max": 8, "tree_depth": 8, "lags": 5},
    "norms": {"draws": 1, "atoms": 8},
    "curve": {"n_max": 4, "t_count": 5,
              "chi": {"kind": "constant", "values": [1.0]}},
    "appendix": {"n_max": 6},
    "audit-all": {"n_max": 8, "tree_depth": 8},
}


def run_small(tmp_path, command: str, params=dict):
    """`command`'s files at SMALL_PARAMS on the doubling map with the
    Bernoulli potential; its read command_params go through `params`."""
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps({
        "map": {"kind": "full_linear", "branches": 2},
        "potential": {"kind": "branch_pw_constant",
                      "segments": [0.0, 0.5, 1.0], "values": [0.0, -1.0]},
        "command_params": SMALL_PARAMS[command],
    }))
    flags = argparse.Namespace(budget=DEFAULT_BUDGET, grid=256, tol=1e-10)
    exp = Experiment(str(config), flags)
    schema, run = COMMANDS[command]
    return run(exp, params(exp.read(exp.params, schema, "command_params")))


def file_formats_section() -> list:
    """README's File formats bullets, each joined into one line."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^File formats:\n\n((?:(?:- |  ).*\n)+)", text, re.M)
    assert match, "README has no 'File formats:' list"
    return [" ".join(b.split()) for b in re.split(r"^- ", match.group(1), flags=re.M)[1:]]


def test_every_command_file_is_documented(tmp_path):
    """Each file a command returns has the one File formats bullet naming it,
    and that bullet shows the file's header: `point,mass` for a measure,
    else the keys of its first row."""
    documented = file_formats_section()
    assert sorted(SMALL_PARAMS) == sorted(COMMANDS)
    for command in SMALL_PARAMS:
        for name, rows in run_small(tmp_path, command):
            header = "point,mass" if isinstance(rows, AtomicMeasure) else ",".join(rows[0])
            assert f"`{header}`" in bullet(documented, name), f"{command}: {name}"


def config_reference() -> dict:
    """README's config reference: each list's intro (up to its first comma)
    -> its bullets, each joined into one line."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^Config reference\..*?^Exit codes:", text, re.M | re.S)
    assert match, "README has no config reference"
    lists = re.findall(r"^(\S.*):\n\n((?:(?:- |  ).*\n)+)", match.group(0), re.M)
    return {
        intro.split(",")[0]: [
            " ".join(b.split()) for b in re.split(r"^- ", body, flags=re.M)[1:]
        ]
        for intro, body in lists
    }


def bullet(bullets: list, name: str) -> str:
    """The one bullet whose head, the text before its first colon, names `name`."""
    found = [b for b in bullets if f"`{name}`" in b.split(":")[0]]
    assert len(found) == 1, f"{name}: {len(found)} bullets"
    return found[0]


def test_every_config_key_is_documented():
    ref = config_reference()
    for key in CONFIG:
        bullet(ref["Top level"], key)
    for intro, table in (("Map kinds", MAPS), ("Potential kinds", POTENTIALS)):
        for kind, (schema, _) in table.items():
            text = bullet(ref[intro], kind)
            for key in schema:
                assert f"`{key}`" in text, f"{intro}: {kind}.{key}"
    for command, (schema, _) in COMMANDS.items():
        text = bullet(ref["`command_params` per command"], command)
        for key, (default, _) in schema.items():
            numeric = type(default) in (int, float)
            named = f"`{key}` {default:g}" if numeric else f"`{key}`"
            assert named in text, f"{command}: {named}"
    text = bullet(ref["`command_params` per command"], "correlations")
    for key in OBSERVABLE:
        assert f"`{key}`" in text, f"observables: {key}"


def test_every_documented_command_param_is_a_key():
    """The reverse check: each name in backticks in a command's bullet is a
    key of its schema, an OBSERVABLE key in the correlations bullet, or a
    command name, so a key taken out of a schema cannot stay documented."""
    ref = config_reference()["`command_params` per command"]
    for command, (schema, _) in COMMANDS.items():
        text = bullet(ref, command)
        allowed = {*schema, *COMMANDS, *(OBSERVABLE if command == "correlations" else ())}
        names = {n for n in re.findall(r"`([^`]*)`", text)
                 if re.fullmatch(r"[A-Za-z_][\w-]*", n)}
        assert names <= allowed, f"{command}: {sorted(names - allowed)}"


class ReadKeys(dict):
    """command_params that add each key a pipeline reads to `read`."""

    def __init__(self, values, read: set):
        super().__init__(values)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_every_command_param_is_read(tmp_path):
    """No command_params key is parsed and then ignored: each command's
    pipeline reads every key of its schema."""
    for command, (schema, _) in COMMANDS.items():
        read = set()
        run_small(tmp_path, command, partial(ReadKeys, read=read))
        assert set(schema) <= read, f"{command}: {sorted(set(schema) - read)}"
