import warnings

import numpy as np
import pytest

from diffbank import (DataError, HopBank, build_graph, graph_hash,
                      load_bank_file, load_checkpoint, load_edge_list,
                      load_features, load_features_csv, load_labels,
                      save_bank_file, save_checkpoint, save_edge_list,
                      save_features, save_labels)
from diffbank.graph import LabelVector
from diffbank.rng import rng_for

from conftest import random_graph


def test_edge_list_round_trip(tmp_path):
    rng = rng_for(0, "ioedges")
    for trial in range(8):
        g = random_graph(rng, int(rng.integers(3, 40)))
        path = tmp_path / f"g{trial}.tsv"
        save_edge_list(path, g)
        back = load_edge_list(path, g.n)
        assert graph_hash(back) == graph_hash(g)


def test_edge_list_infers_node_count(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("0\t3\n1\t2\n")
    g = load_edge_list(p)
    assert g.n == 4


def test_edge_list_comments_and_blank_lines(tmp_path):
    p = tmp_path / "e.tsv"
    p.write_text("# a comment\n\n0\t1  # trailing\n\n1\t2\n")
    g = load_edge_list(p, 3)
    assert g.num_edges == 4


def test_edge_list_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    for text in ["0\t1\t2\n",                   # one row too wide
                 "0\t1\t2\n1\t2\t0\n",            # every row too wide
                 "0\n1\n",                        # single column
                 "0\tx\n",
                 "1.0\t2\n",                      # float endpoint
                 "99999999999999999999\t1\n"]:    # past int64
        p.write_text(text)
        with pytest.raises(DataError, match="bad.tsv"):
            load_edge_list(p, 3)
    p.write_text("# only comments\n")
    with pytest.raises(DataError):
        load_edge_list(p)  # no node count to fall back on


def test_edge_list_float_field_warning_is_an_error(tmp_path, monkeypatch):
    # numpy 1.x loads "1.0" into an integer column with only a warning
    def loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning)
        return np.array([[1, 2]])

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    p = tmp_path / "float.tsv"
    p.write_text("1.0\t2\n")
    with pytest.raises(DataError, match="float.tsv"):
        load_edge_list(p, 3)


def test_edge_list_save_bytes(tmp_path):
    # undirected edges are written once each, smaller endpoint first
    g = build_graph(np.array([[2, 0], [0, 1], [3, 2], [2, 2]]), 4)
    p = tmp_path / "g.tsv"
    save_edge_list(p, g)
    assert p.read_bytes() == b"# nodes: 4\n0\t1\n0\t2\n2\t2\n2\t3\n"
    save_edge_list(p, build_graph(np.zeros((0, 2), np.int64), 3))
    assert p.read_bytes() == b"# nodes: 3\n"


def test_features_round_trip(tmp_path):
    x = rng_for(1, "iofeat").normal(size=(17, 5)).astype(np.float32)
    p = tmp_path / "x.fmx"
    save_features(p, x)
    back = load_features(p)
    assert back.dtype == np.float32
    assert np.array_equal(back, x)


def test_features_reject_wrong_magic(tmp_path):
    p = tmp_path / "x.fmx"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataError):
        load_features(p)


def test_features_reject_truncation(tmp_path):
    x = np.ones((4, 4), dtype=np.float32)
    p = tmp_path / "x.fmx"
    save_features(p, x)
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(DataError):
        load_features(p)


def test_features_reject_non_finite(tmp_path):
    x = np.ones((2, 2), dtype=np.float32)
    x[0, 0] = np.nan
    p = tmp_path / "x.fmx"
    save_features(p, x)
    with pytest.raises(DataError):
        load_features(p)


def test_features_csv_with_and_without_header(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    assert np.allclose(load_features_csv(p), [[1, 2], [3, 4]])
    p.write_text("1.0,2.0\n3.0,4.0\n")
    assert np.allclose(load_features_csv(p), [[1, 2], [3, 4]])


def test_features_csv_single_row(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1.5,2.5,3.5\n")
    assert load_features_csv(p).shape == (1, 3)


def _label_vector(n, rng):
    labels = rng.integers(0, 3, size=n)
    perm = rng.permutation(n)
    t, v = np.zeros(n, bool), np.zeros(n, bool)
    s = np.zeros(n, bool)
    t[perm[: n // 2]] = True
    v[perm[n // 2: 3 * n // 4]] = True
    s[perm[3 * n // 4:]] = True
    return LabelVector(labels=labels, train_mask=t, val_mask=v, test_mask=s,
                       num_classes=3)


def test_labels_round_trip(tmp_path):
    rng = rng_for(2, "iolab")
    lv = _label_vector(23, rng)
    p = tmp_path / "y.tsv"
    save_labels(p, lv)
    back = load_labels(p, 23)
    assert np.array_equal(back.train_mask, lv.train_mask)
    assert np.array_equal(back.val_mask, lv.val_mask)
    assert np.array_equal(back.test_mask, lv.test_mask)
    labeled = lv.train_mask | lv.val_mask | lv.test_mask
    assert np.array_equal(back.labels[labeled], lv.labels[labeled])
    assert back.num_classes == 3


def test_labels_errors(tmp_path):
    p = tmp_path / "y.tsv"
    p.write_text("0\t1\tdev\n")
    with pytest.raises(DataError):
        load_labels(p, 3)
    p.write_text("9\t1\ttrain\n")
    with pytest.raises(DataError):
        load_labels(p, 3)
    p.write_text("0\t-2\ttrain\n")
    with pytest.raises(DataError):
        load_labels(p, 3)


def _labels_by_line(path, n):
    """Reference reader: the per-line loop the one-pass reader replaced."""
    labels = np.full(n, -1, dtype=np.int64)
    masks = {s: np.zeros(n, dtype=bool) for s in ("train", "val", "test")}
    for raw in path.read_text(encoding="utf-8").splitlines():
        parts = raw.split("#", 1)[0].split()
        if parts:
            labels[int(parts[0])] = int(parts[1])
            masks[parts[2]][int(parts[0])] = True
    return labels, masks


def test_labels_match_a_line_by_line_reader(tmp_path):
    rng = rng_for(4, "iolabref")
    n = 300
    nodes = rng.permutation(n)[:250]
    splits = rng.choice(["train", "val", "test"], size=nodes.size)
    lines = [f"{i}{sep}{rng.integers(0, 7)}{sep}{s}{tail}\n"
             for i, s, sep, tail in zip(nodes, splits,
                                         rng.choice(["\t", " ", " \t "], nodes.size),
                                         rng.choice(["", "  # note", "\t"], nodes.size))]
    for at in sorted(rng.integers(0, len(lines), 20), reverse=True):
        lines.insert(at, rng.choice(["\n", "# comment\n", "   \n"]))
    lines.append(f"{nodes[0]}\t5\t{splits[0]}\n")  # a repeat: the last one wins
    p = tmp_path / "y.tsv"
    p.write_text("".join(lines))
    lv = load_labels(p, n)
    labels, masks = _labels_by_line(p, n)
    assert np.array_equal(lv.labels, labels)
    for split, mask in masks.items():
        assert np.array_equal(getattr(lv, f"{split}_mask"), mask)


def test_label_errors_name_the_first_bad_line(tmp_path):
    p = tmp_path / "y.tsv"
    good = "# header\n0\t1\ttrain\n\n1\t0\tval\n"
    for bad, why in [("2\t1\n", "expected"), ("x\t1\ttest\n", "non-integer"),
                     ("7\t1\ttest\n", "out of range"), ("2\t-1\ttest\n", "negative")]:
        p.write_text(good + bad + "7\t1\tdev\n")
        with pytest.raises(DataError, match=f"y.tsv:5: .*{why}"):
            load_labels(p, 3)
    # a class id past int64 fails the parse but no per-line check
    p.write_text(good + "2\t99999999999999999999\ttest\n")
    with pytest.raises(DataError, match="malformed label file"):
        load_labels(p, 3)


def test_bank_round_trip(tmp_path):
    slabs = rng_for(3, "iobank").normal(size=(4, 9, 3)).astype(np.float32)
    bank = HopBank(hops=3, slabs=slabs, provenance={"basis": "legendre", "hops": 3})
    p = tmp_path / "b.hbk"
    save_bank_file(p, bank)
    back = load_bank_file(p)
    assert back.hops == 3
    assert np.array_equal(back.slabs, slabs)
    assert back.provenance == bank.provenance


def test_bank_reject_wrong_magic_and_truncation(tmp_path):
    p = tmp_path / "b.hbk"
    p.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(DataError):
        load_bank_file(p)
    slabs = np.ones((2, 3, 2), dtype=np.float32)
    save_bank_file(p, HopBank(hops=1, slabs=slabs, provenance={}))
    raw = p.read_bytes()
    p.write_bytes(raw[:-4])
    with pytest.raises(DataError):
        load_bank_file(p)


def test_checkpoint_round_trip(tmp_path):
    rng = rng_for(4, "iockpt")
    params = {
        "trunk0.w": rng.normal(size=(6, 4)).astype(np.float32),
        "trunk0.b": rng.normal(size=4).astype(np.float32),
        "cls.w": rng.normal(size=(4, 2)).astype(np.float32),
    }
    config = {"backbone": "mlp", "hops": 2, "trunk": [4]}
    p = tmp_path / "m.mdl"
    save_checkpoint(p, params, config)
    back_params, back_config = load_checkpoint(p)
    assert back_config == config
    assert set(back_params) == set(params)
    for k in params:
        assert np.array_equal(back_params[k], params[k])


def test_checkpoint_reject_wrong_magic(tmp_path):
    p = tmp_path / "m.mdl"
    p.write_bytes(b"MDLX" + b"\x00" * 16)
    with pytest.raises(DataError):
        load_checkpoint(p)


def _binary_files(tmp_path):
    """One small file of each binary format, with the byte offset and width
    of every size field in its header."""
    x = rng_for(5, "iobin").normal(size=(3, 2)).astype(np.float32)
    fmx = tmp_path / "x.fmx"
    save_features(fmx, x)
    hbk = tmp_path / "b.hbk"
    save_bank_file(hbk, HopBank(hops=1, slabs=np.stack([x, 2 * x]),
                                provenance={"basis": "legendre"}))
    mdl = tmp_path / "m.mdl"
    save_checkpoint(mdl, {"w": x}, {"backbone": "mlp"})
    blob = len(b'{"backbone": "mlp"}')
    name = 4 + 8 + blob + 8  # offset of the parameter block's name length
    return [
        (fmx, load_features, [(4, 8), (12, 8)]),
        (hbk, load_bank_file, [(4, 8), (12, 8), (20, 8), (28, 8)]),
        (mdl, load_checkpoint, [(4, 8), (4 + 8 + blob, 8), (name, 4),
                                (name + 5, 8), (name + 13, 8), (name + 21, 8)]),
    ]


def test_binary_files_reject_every_truncation(tmp_path):
    for path, load, _ in _binary_files(tmp_path):
        raw = path.read_bytes()
        load(path)
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(DataError):
                load(path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(DataError):
            load(path)


@pytest.mark.parametrize("value", [0, 1, 2**31, 2**40, 2**63 - 1])
def test_binary_files_reject_lying_size_fields(tmp_path, value):
    # a wrong size must fail against the file length before anything is
    # allocated by it: 2**40 float32 values would be 4 TiB
    for path, load, fields in _binary_files(tmp_path):
        raw = path.read_bytes()
        for offset, width in fields:
            packed = value.to_bytes(8, "little")[:width]
            if value >= 256 ** width or raw[offset:offset + width] == packed:
                continue
            path.write_bytes(raw[:offset] + packed + raw[offset + width:])
            with pytest.raises(DataError):
                load(path)
        path.write_bytes(raw)


def test_binary_files_reject_non_object_blobs(tmp_path):
    p = tmp_path / "m.mdl"
    save_checkpoint(p, {}, [1, 2])
    with pytest.raises(DataError, match="JSON object"):
        load_checkpoint(p)
    p = tmp_path / "b.hbk"
    save_bank_file(p, HopBank(hops=0, slabs=np.ones((1, 2, 2), np.float32),
                              provenance=[1]))
    with pytest.raises(DataError, match="JSON object"):
        load_bank_file(p)
