"""The benchmark's pinned algebra answers, replayed through `cli.main` on
the unpermuted ideals of its workloads, so that a wrong multiplier, power
or containment fails here and not only in the benchmark."""

import importlib
import json
from pathlib import Path

import pytest

from linserlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINNED = json.loads((PERFBENCH / "pinned.json").read_text())
KEYS = sorted(k for k in PINNED
              if k.split()[0] in ("multiplier", "power", "suite"))
SUITE_FIELDS = ("els", "harbourne", "hh1", "hh2", "hh3", "hh4", "chain")


@pytest.fixture(scope="module")
def ideals():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads").IDEALS


def test_every_algebra_pin_is_replayed():
    assert [k.split()[0] for k in KEYS] == (
        ["multiplier"] * 4 + ["power"] * 5 + ["suite"] * 5)


@pytest.mark.parametrize("key", KEYS)
def test_pinned_algebra_answer(key, ideals, tmp_path, capsys):
    action, name, arg, *ordinary = key.split()
    gens = sorted(list(g) for g in ideals[name])
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(
        {"vars": [f"x{i}" for i in range(len(gens[0]))], "gens": gens}))
    flag, value = arg.split("=")
    code = main(["symbolic", action, "--ideal", str(path), f"--{flag}",
                 value] + [f"--{o}" for o in ordinary])
    doc = json.loads(capsys.readouterr().out)
    if action == "multiplier":
        got = [code, sorted(doc["multiplier"]["gens"])]
    elif action == "power":
        assert code == 0
        got = sorted(doc["power"]["gens"])
    else:
        assert code == 0
        got = {k: doc[k] for k in SUITE_FIELDS}
    assert got == PINNED[key]
