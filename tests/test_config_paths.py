"""Every enum and boolean leaf of ``CONFIG_SCHEMA``, and every numeric leaf
at each bound it declares, runs end to end.

The cases come from a walk of the schema, so a new key or bound gets its
cases without an edit here. A numeric case takes the bound itself, the
nearest float inside an exclusive one, or a one-item list for an array;
``dataset.num_nodes`` takes the file's node count instead, as any other
count is a data error. Each case sets one leaf to one of its values on a
small base config and adds only what that value needs: the monomial basis
for an operator other than ``shifted``, the ``da`` operator for a directed
graph, a synthetic dataset for a ``dataset.synthetic`` key (the base reads
files), the spectral-signal generator for the keys only it reads, the
``gru`` backbone for its keys, the basis a ``krylov`` or ``jacobi`` key
belongs to, few enough hops for a Krylov order, and one epoch budget per
stage. It then runs ``validate_config`` and ``run_seed``, and checks the
report's product count against the closed form: the moment order for a
calibrated basis, plus one bank's products per stage.
"""

import copy
import math

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

# bound keyword -> the inside of the range, for an exclusive bound
_BOUNDS = {"minimum": None, "maximum": None,
           "exclusiveMinimum": math.inf, "exclusiveMaximum": -math.inf}


def _bound_values(node):
    for alt in node.get("anyOf", [node]):
        num = alt.get("items", alt)
        for key, inside in _BOUNDS.items():
            if key in num:
                value = num[key] if inside is None else math.nextafter(num[key], inside)
                yield [value] if "items" in alt else value


def _bound_cases():
    for path, node in _leaves(CONFIG_SCHEMA):
        values = [SYNTH["n"]] if path == ("dataset", "num_nodes") else _bound_values(node)
        for value in values:
            yield pytest.param(path, value, id=f"{'.'.join(path)}={value}")


BOUND_CASES = list(_bound_cases())


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
    if path[-1] in ("signal_quantile", "confounder_modes", "confounder_scale"):
        raw["dataset"]["synthetic"]["generator"] = "spectral-signal"
    if path[-1] in ("state_dim", "readout"):
        raw["backbone"] = "gru"
    if path[0] in ("krylov", "jacobi"):
        raw["basis"] = path[0]
    if path == ("krylov", "order"):
        raw["hops"] = min(raw["hops"], value - 1)
    if isinstance(raw["hrp"].get("epochs"), list):
        raw["hrp"]["epochs"] *= raw["hrp"]["stages"]
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
    assert {"hops=15", "krylov.order=15", "hrp.stages=7", "seeds=[4294967295]",
            "calibration.seed=4294967295", "calibration.order=512",
            "jacobi.alpha=-0.9999999999999999",
            "dataset.num_nodes=120"} <= {p.id for p in BOUND_CASES}


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


@pytest.mark.parametrize("path,value", BOUND_CASES)
def test_every_numeric_bound_runs_end_to_end(files, path, value):
    cfg = validate_config(case_config(path, value, files))
    before = spmm_call_count()
    row, _ = run_seed(cfg, cfg["seeds"][0])
    assert np.isfinite(row["test_metric"])
    assert len(row["stages"]) == to_stage_plan(cfg).stages
    assert row["total_spmm"] == expected_spmm(cfg)
    assert spmm_call_count() - before == row["total_spmm"] + cfg["label_diffusion"]
