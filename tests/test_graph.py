import hashlib

import numpy as np
import pytest

from diffbank import DataError, graph, make_operator, reset_spmm_count, spmm_call_count
from diffbank.graph import (OPERATOR_KINDS, Graph, LabelVector, MAX_NODES, build_graph,
                            degrees, graph_hash, spmm)

from conftest import dense_operator, random_graph
from diffbank.rng import rng_for


def test_build_graph_csr_structure(p2, k3):
    assert p2.n == 2
    assert p2.row_ptr.tolist() == [0, 1, 2]
    assert p2.col_idx.tolist() == [1, 0]
    assert k3.row_ptr.tolist() == [0, 2, 4, 6]
    assert k3.col_idx.tolist() == [1, 2, 0, 2, 0, 1]


def test_build_graph_dedup_and_reversed_duplicates():
    # the same undirected edge given twice, once reversed
    g = build_graph(np.array([[0, 1], [1, 0], [0, 1]]), 2)
    assert g.num_edges == 2
    assert g.col_idx.tolist() == [1, 0]


def test_build_graph_self_loops_flag():
    g = build_graph(np.array([[0, 1]]), 3, add_self_loops=True)
    assert degrees(g).tolist() == [2, 2, 1]
    for i in range(3):
        nbrs = g.col_idx[g.row_ptr[i]:g.row_ptr[i + 1]]
        assert i in nbrs


def test_build_graph_existing_self_loop_not_doubled():
    g = build_graph(np.array([[0, 0], [0, 1]]), 2)
    nbrs0 = g.col_idx[g.row_ptr[0]:g.row_ptr[1]]
    assert nbrs0.tolist() == [0, 1]


def test_build_graph_sorted_neighbors():
    rng = rng_for(7, "sorted")
    for trial in range(20):
        g = random_graph(rng, int(rng.integers(3, 30)))
        for i in range(g.n):
            nbrs = g.col_idx[g.row_ptr[i]:g.row_ptr[i + 1]]
            assert np.all(np.diff(nbrs) > 0)


def test_build_graph_errors():
    with pytest.raises(DataError):
        build_graph(np.array([[0, 1]]), 0)
    with pytest.raises(DataError):
        build_graph(np.array([[0, 5]]), 3)
    with pytest.raises(DataError):
        build_graph(np.array([[-1, 0]]), 3)
    with pytest.raises(DataError):
        build_graph(np.array([[0, 1, 2]]), 3)
    # past MAX_NODES the int64 sort key src * n + dst would overflow
    with pytest.raises(DataError, match="supported maximum"):
        build_graph(np.array([[0, 1]]), MAX_NODES + 1)


def test_build_graph_refuses_what_cannot_fit_before_allocating(monkeypatch):
    # the patch fails first where build_graph has no preflight, so this
    # never reaches the 32 GB of row pointers n = 2e9 + 1 would size
    monkeypatch.setattr(graph, "_physical_bytes", lambda: 2**30)
    with pytest.raises(DataError, match="physical memory"):
        build_graph(np.array([[0, 2_000_000_000]]), 2_000_000_001)
    # self-loops count: 16 bytes of pointers and 24 per entry
    monkeypatch.setattr(graph, "_physical_bytes", lambda: 16 * 11 + 24 * 12)
    build_graph(np.array([[0, 1]]), 10, add_self_loops=True)
    with pytest.raises(DataError, match="physical memory"):
        build_graph(np.array([[0, 1]]), 11, add_self_loops=True)


def test_build_graph_matches_a_lexicographic_sort():
    rng = rng_for(8, "keysort")
    n = 50
    edges = rng.integers(0, n, size=(400, 2))
    for undirected in (True, False):
        g = build_graph(edges, n, undirected=undirected, add_self_loops=True)
        src, dst = edges[:, 0], edges[:, 1]
        if undirected:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src = np.concatenate([src, np.arange(n)])
        dst = np.concatenate([dst, np.arange(n)])
        pairs = sorted(set(zip(src.tolist(), dst.tolist())))
        assert g.col_idx.tolist() == [d for _, d in pairs]
        assert g.row_ptr.tolist() == np.searchsorted(
            [s for s, _ in pairs], np.arange(n + 1)).tolist()


def test_graph_arrays_immutable(k3):
    with pytest.raises(ValueError):
        k3.col_idx[0] = 2
    with pytest.raises(ValueError):
        k3.row_ptr[0] = 1


def test_graph_hash_stable_and_distinct(k3, p2):
    assert graph_hash(k3) == graph_hash(build_graph(np.array([[0, 1], [1, 2], [0, 2]]), 3))
    assert graph_hash(k3) != graph_hash(p2)


# sha256 of each operator's band arrays (dtype name, then bytes, for _ptr,
# _idx and _w), as built from int64 graph indices
OPERATOR_SHA256 = {
    "dad": "32f45d9cebf34f81433fb7a4b17733b7f4a2c565ee0181c0303cf8e310d23bf9",
    "da": "900e41ea1d69b310d592b6ed7ef5fba58c3e2b21226223d19fd6d6d82e05dd24",
    "lap": "ae33f1a2fc0a4489982a78f434e3017065c91a1bb3e135a774ed28efac7870a3",
    "shifted": "92b7822a2547a41de2a95fca6178d52b728c10fcbff60ac4302946f1db1fac30",
}


def test_int32_indices_keep_the_hash_and_the_operators(monkeypatch):
    # ten isolated nodes and a few self-loops put diagonal terms into lap
    # and shifted; 1000-column bands give the operators four bands
    monkeypatch.setattr(graph, "_BAND_COLS", 1000)
    n = 3010
    g = build_graph(rng_for(7, "index-dtype").integers(0, n - 10, size=(6 * n, 2)), n)
    assert g.row_ptr.dtype == g.col_idx.dtype == np.int32
    assert g.num_edges == 36026
    assert graph_hash(g) == "5b4c0bd9a313821c92eea9d8b099b22dee706f103bb882c80bba9b911db5c63c"
    wide = Graph(n, g.row_ptr.astype(np.int64), g.col_idx.astype(np.int64))
    assert graph_hash(wide) == graph_hash(g)
    for kind in OPERATOR_KINDS:
        op, op64 = make_operator(g, kind), make_operator(wide, kind)
        h = hashlib.sha256()
        for a, b in ((op._ptr, op64._ptr), (op._idx, op64._idx), (op._w, op64._w)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
        assert h.hexdigest() == OPERATOR_SHA256[kind], kind


def test_label_vector_mask_overlap_rejected():
    labels = np.array([0, 1, 0])
    t = np.array([True, False, False])
    v = np.array([True, True, False])
    with pytest.raises(DataError):
        LabelVector(labels=labels, train_mask=t, val_mask=v,
                    test_mask=np.zeros(3, bool), num_classes=2)


def test_label_vector_class_range_rejected():
    labels = np.array([0, 5, 0])
    t = np.array([False, True, False])
    z = np.zeros(3, bool)
    with pytest.raises(DataError):
        LabelVector(labels=labels, train_mask=t, val_mask=z, test_mask=z,
                    num_classes=2)


# operator semantics against hand-computed dense forms


def test_operator_dense_forms_p2(p2):
    assert np.allclose(dense_operator(p2, "dad"), [[0, 1], [1, 0]])
    assert np.allclose(dense_operator(p2, "da"), [[0, 1], [1, 0]])
    assert np.allclose(dense_operator(p2, "lap"), [[1, -1], [-1, 1]])
    assert np.allclose(dense_operator(p2, "shifted"), [[0, -1], [-1, 0]])


def test_operator_dense_forms_star(star5):
    dad = dense_operator(star5, "dad")
    assert dad[0, 1] == pytest.approx(1 / np.sqrt(4), abs=1e-12)
    da = dense_operator(star5, "da")
    assert da[0, 1] == pytest.approx(0.25, abs=1e-12)
    assert da[1, 0] == pytest.approx(1.0, abs=1e-12)


def test_operator_isolated_node_conventions():
    g = build_graph(np.array([[0, 1]]), 3)  # node 2 isolated
    lap = dense_operator(g, "lap")
    sh = dense_operator(g, "shifted")
    assert lap[2, 2] == 0.0
    assert sh[2, 2] == -1.0
    assert np.all(lap[2, :2] == 0) and np.all(lap[:2, 2] == 0)


def test_operator_spectra_in_range():
    # edge weights are stored in float32, so the bounds hold to f32 rounding
    rng = rng_for(3, "spectra")
    for trial in range(15):
        g = random_graph(rng, int(rng.integers(4, 40)))
        lam_sh = np.linalg.eigvalsh(dense_operator(g, "shifted"))
        lam_lap = np.linalg.eigvalsh(dense_operator(g, "lap"))
        assert lam_sh.min() >= -1 - 1e-6 and lam_sh.max() <= 1 + 1e-6
        assert lam_lap.min() >= -1e-6 and lam_lap.max() <= 2 + 1e-6


def test_shifted_equals_lap_minus_identity():
    rng = rng_for(11, "lapshift")
    for trial in range(10):
        g = random_graph(rng, int(rng.integers(3, 25)))
        lap = dense_operator(g, "lap")
        sh = dense_operator(g, "shifted")
        iso = degrees(g) == 0
        # on non-isolated nodes, shifted is exactly lap - I
        expect = lap - np.eye(g.n)
        assert np.allclose(sh[~iso][:, ~iso], expect[~iso][:, ~iso], atol=1e-12)


def test_symmetric_operators_refuse_directed_graphs():
    g = build_graph(np.array([[0, 1]]), 2, undirected=False)
    for kind in ("dad", "lap", "shifted"):
        with pytest.raises(ValueError):
            make_operator(g, kind)
    make_operator(g, "da")  # random-walk kind is fine


def test_unknown_operator_kind(k3):
    with pytest.raises(ValueError):
        make_operator(k3, "sym")


def test_spmm_matches_dense_and_counts(k3):
    op = make_operator(k3, "shifted")
    x = rng_for(0, "spmmx").normal(size=(3, 4))
    reset_spmm_count()
    y = spmm(op, x)
    assert spmm_call_count() == 1
    assert np.allclose(y, dense_operator(k3, "shifted") @ x, atol=1e-14)


def test_spmm_vector_and_dtype_round_trip(k3):
    op = make_operator(k3, "dad")
    v32 = np.ones(3, dtype=np.float32)
    out = spmm(op, v32)
    assert out.dtype == np.float32 and out.shape == (3,)
    v64 = np.ones((3, 2))
    assert spmm(op, v64).dtype == np.float64


def test_spmm_row_mismatch(k3):
    op = make_operator(k3, "dad")
    with pytest.raises(ValueError):
        spmm(op, np.ones((4, 2)))


def test_spmm_deterministic(k3):
    op = make_operator(k3, "shifted")
    x = rng_for(1, "det").normal(size=(3, 8)).astype(np.float32)
    outs = [spmm(op, x) for _ in range(5)]
    for o in outs[1:]:
        assert np.array_equal(o, outs[0])


def test_da_rows_sum_to_one():
    rng = rng_for(5, "darows")
    for trial in range(10):
        g = random_graph(rng, int(rng.integers(3, 30)))
        da = dense_operator(g, "da")
        live = degrees(g) > 0
        assert np.allclose(da[live].sum(axis=1), 1.0, atol=1e-12)
