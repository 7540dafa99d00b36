"""Every enum and boolean leaf of ``CONFIG_SCHEMA`` runs end to end.

The cases come from a walk of the schema, so a new enum or boolean key gets
its cases without an edit here. Each case sets one leaf to one of its
values on a small base config and adds only what that value needs: the
monomial basis for an operator other than ``shifted``, the ``da`` operator
for a directed graph, and a synthetic dataset for a ``dataset.synthetic``
key (the base reads files). It then runs ``validate_config`` and
``run_seed``, and checks the report's product count against the closed
form: the moment order for a calibrated basis, plus one bank's products
per stage.
"""

import copy

import numpy as np
import pytest

from diffbank import io as dio
from diffbank.config import CONFIG_SCHEMA, to_stage_plan, validate_config
from diffbank.experiment import run_seed
from diffbank.graph import spmm_call_count
from diffbank.synth import SyntheticSpec, generate

SYNTH = {"generator": "sbm", "n": 120, "blocks": 2, "p_intra": 0.08, "p_inter": 0.02,
         "feature_dim": 4}
BASE = {"hops": 2, "train": {"epochs": 1, "batch_size": 32, "trunk": [8]},
        "hrp": {"stages": 2}, "seeds": [0]}


def _leaves(node, path=()):
    """(path, schema) of every leaf under ``node``."""
    if "properties" not in node:
        yield path, node
    for key, child in node.get("properties", {}).items():
        yield from _leaves(child, (*path, key))


def _cases():
    for path, node in _leaves(CONFIG_SCHEMA):
        if "enum" in node:
            values = node["enum"]
        elif node.get("type") == "boolean":
            values = [False, True]
        else:
            continue
        for value in values:
            yield pytest.param(path, value, id=f"{'.'.join(path)}={value}")


CASES = list(_cases())


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A file dataset drawn from ``SYNTH``, without ``num_nodes``."""
    out = tmp_path_factory.mktemp("paths")
    g, x, lv = generate(SyntheticSpec(**SYNTH))
    dio.save_edge_list(out / "edges.tsv", g)
    dio.save_features(out / "features.fmx", x)
    dio.save_labels(out / "labels.tsv", lv)
    return {k: str(out / f) for k, f in (("edges", "edges.tsv"),
                                         ("features", "features.fmx"),
                                         ("labels", "labels.tsv"))}


def case_config(path, value, files) -> dict:
    raw = copy.deepcopy(BASE)
    raw["dataset"] = ({"synthetic": dict(SYNTH)} if path[:2] == ("dataset", "synthetic")
                      else dict(files))
    node = raw
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    if raw.get("operator", "shifted") != "shifted":
        raw.setdefault("basis", "monomial")
    if raw["dataset"].get("undirected") is False:
        raw.update(operator="da", basis="monomial")
    return raw


def expected_spmm(cfg: dict) -> int:
    hops = cfg["hops"]
    per_bank = (cfg["krylov"]["order"] or hops + 1) if cfg["basis"] == "krylov" else hops
    calib = cfg["calibration"]["order"] if cfg["basis"] == "auto" else 0
    return calib + per_bank * to_stage_plan(cfg).stages


def test_the_walk_reaches_the_paths_no_other_test_runs():
    reached = {(p.values[0], p.values[1]) for p in CASES}
    assert {(("operator",), "lap"), (("backbone",), "gru")} <= reached


@pytest.mark.parametrize("path,value", CASES)
def test_every_enum_and_boolean_value_runs_end_to_end(files, path, value):
    cfg = validate_config(case_config(path, value, files))
    before = spmm_call_count()
    row, result = run_seed(cfg, cfg["seeds"][0])
    assert np.isfinite(row["test_metric"])
    assert len(row["stages"]) == 2
    assert row["total_spmm"] == expected_spmm(cfg)
    # label diffusion's one da product is data preparation, outside total_spmm
    assert spmm_call_count() - before == row["total_spmm"] + cfg["label_diffusion"]
