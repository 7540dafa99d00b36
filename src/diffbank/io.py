"""On-disk formats: edge lists, feature matrices, labels, banks, checkpoints.

Text formats are UTF-8 and tab-separated. Binary formats are little-endian
with a 4-byte magic so a wrong file fails fast instead of parsing garbage:

``FMX1``  feature matrix: magic, u64 n, u64 d, then n*d float32 row-major
``HBK1``  hop bank: magic, u64 n, u64 d, u64 slab count, u64 blob length,
          provenance JSON blob, then slab-major float32 payload
``MDL1``  model checkpoint: magic, u64 blob length, config JSON blob,
          u64 block count, then per block a u32-length-prefixed UTF-8 name,
          u64 ndim, u64 dims, float32 payload

Readers check every size a header states against the length of the file
before they allocate or read by it, so a truncated or corrupt file raises
``DataError`` instead of a parse error or a huge allocation.
"""

import json
import math
import os
import struct
import warnings

import numpy as np

from .errors import DataError
from .banks import MAX_HOPS, HopBank
from .graph import Graph, LabelVector, build_graph

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_features",
    "save_features",
    "load_features_csv",
    "load_labels",
    "save_labels",
    "load_bank_file",
    "save_bank_file",
    "load_checkpoint",
    "save_checkpoint",
]

_SPLITS = ("train", "val", "test")
# one label-file row; a split name longer than 5 characters is invalid, so
# cutting it to 8 cannot turn it into a valid one
_LABEL_ROW = np.dtype([("node", np.int64), ("label", np.int64), ("split", "U8")])


def _loadtxt(path, dtype, ndmin: int) -> np.ndarray:
    """One ``np.loadtxt`` pass over a ``#``-commented, whitespace-separated
    file. Bad input raises ValueError or DeprecationWarning."""
    with warnings.catch_warnings():
        # an empty or comment-only file is the caller's to report, not warned about
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy 1.x parses a float field such as "1.0" as an integer with a
        # DeprecationWarning; numpy 2 raises ValueError. Both are bad input.
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(path, dtype=dtype, comments="#", ndmin=ndmin, encoding="utf-8")


def load_edge_list(path, n=None, *, undirected=True, add_self_loops=False) -> Graph:
    """Read a ``src<TAB>dst`` edge list (0-based ids, ``#`` comments allowed).

    The whole file is parsed in one ``np.loadtxt`` pass; any whitespace
    separates the two endpoints. A non-integer id, an id past int64, or a
    row without exactly two fields raises ``DataError`` naming the file
    (and numpy's row and column for a bad field). When ``n`` is omitted it
    is inferred as max endpoint + 1.
    """
    try:
        arr = _loadtxt(path, np.int64, ndmin=2)
    except (ValueError, DeprecationWarning) as exc:
        raise DataError(f"{path}: malformed edge list: {exc}") from exc
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.shape[1] != 2:
        raise DataError(f"{path}: expected 'src<TAB>dst' rows, got {arr.shape[1]} "
                        f"column(s)")
    if n is None:
        if arr.size == 0:
            raise DataError(f"{path}: empty edge list and no node count given")
        n = int(arr.max()) + 1
    return build_graph(arr, n, undirected=undirected, add_self_loops=add_self_loops)


def save_edge_list(path, g: Graph) -> None:
    """Write each undirected edge once (i <= j); directed graphs write all entries."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.row_ptr))
    cols = g.col_idx
    if g.undirected:
        keep = rows <= cols
        rows, cols = rows[keep], cols[keep]
    pairs = np.column_stack([rows, cols]).ravel().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes: {g.n}\n")
        fh.write("%d\t%d\n" * rows.size % tuple(pairs))


def _check_finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise DataError(f"{what} contains non-finite values")
    return x


def _check_size(path, fh, want: int, what: str) -> None:
    got = os.fstat(fh.fileno()).st_size
    if got != want:
        raise DataError(f"{path}: the {what} header gives a file of {want} bytes, "
                        f"the file has {got}")


def load_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(20)
        if len(head) < 20 or head[:4] != b"FMX1":
            raise DataError(f"{path}: not an FMX1 feature file")
        n, d = struct.unpack("<QQ", head[4:])
        _check_size(path, fh, 20 + 4 * n * d, "FMX1")
        payload = np.fromfile(fh, dtype="<f4", count=n * d)
    return _check_finite(payload.reshape(n, d).astype(np.float32), path)


def save_features(path, x: np.ndarray) -> None:
    x = np.ascontiguousarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise DataError("feature matrix must be 2-d")
    with open(path, "wb") as fh:
        fh.write(b"FMX1")
        fh.write(struct.pack("<QQ", x.shape[0], x.shape[1]))
        fh.write(x.astype("<f4").tobytes())


def load_features_csv(path) -> np.ndarray:
    """Comma-separated features, one node per row. A header row is optional
    and detected by the first field failing float conversion."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        try:
            [float(tok) for tok in first.strip().split(",")]
            skip = 0
        except ValueError:
            skip = 1
    try:
        arr = np.loadtxt(path, delimiter=",", skiprows=skip, dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise DataError(f"{path}: malformed CSV features: {exc}") from exc
    return _check_finite(arr.astype(np.float32), path)


def load_labels(path, n: int, num_classes=None) -> LabelVector:
    """Read ``node_id<TAB>label<TAB>split`` lines; split is train, val or test.

    The whole file is parsed in one ``np.loadtxt`` pass (``#`` comments and
    blank lines allowed, any whitespace between fields). A malformed line,
    a node id outside [0, n) or a negative class raises ``DataError``
    naming ``path:lineno`` of the first such line.
    """
    try:
        rows = _loadtxt(path, _LABEL_ROW, ndmin=1)
    except (ValueError, DeprecationWarning):
        raise _bad_label_line(path, n) from None
    node, lab, split = rows["node"], rows["label"], rows["split"]
    if not (np.all((node >= 0) & (node < n) & (lab >= 0))
            and np.all(np.isin(split, _SPLITS))):
        raise _bad_label_line(path, n)
    labels = np.full(n, -1, dtype=np.int64)
    masks = {s: np.zeros(n, dtype=bool) for s in _SPLITS}
    labels[node] = lab
    for s, mask in masks.items():
        mask[node[split == s]] = True
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if np.any(labels >= 0) else 0
    return LabelVector(labels=labels, train_mask=masks["train"], val_mask=masks["val"],
                       test_mask=masks["test"], num_classes=num_classes)


def _bad_label_line(path, n: int) -> DataError:
    """The error for the first line of a label file that breaks its format."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3 or parts[2] not in _SPLITS:
                return DataError(f"{path}:{lineno}: expected 'node<TAB>label<TAB>"
                                 f"{{train|val|test}}', got {raw!r}")
            try:
                node, lab = int(parts[0]), int(parts[1])
            except ValueError:
                return DataError(f"{path}:{lineno}: non-integer field")
            if not (0 <= node < n):
                return DataError(f"{path}:{lineno}: node id {node} out of range")
            if lab < 0:
                return DataError(f"{path}:{lineno}: negative class id")
    return DataError(f"{path}: malformed label file")


def save_labels(path, lv: LabelVector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for split in _SPLITS:
            nodes = np.nonzero(getattr(lv, f"{split}_mask"))[0]
            pairs = np.column_stack([nodes, lv.labels[nodes]]).ravel().tolist()
            fh.write(f"%d\t%d\t{split}\n" * nodes.size % tuple(pairs))


def save_bank_file(path, bank: HopBank) -> None:
    """Write a hop bank with its provenance dict."""
    slabs = np.ascontiguousarray(bank.slabs, dtype=np.float32)
    if slabs.ndim != 3:
        raise DataError("bank slabs must have shape (hops + 1, n, d)")
    blob = json.dumps(bank.provenance, sort_keys=True).encode("utf-8")
    k1, n, d = slabs.shape
    with open(path, "wb") as fh:
        fh.write(b"HBK1")
        fh.write(struct.pack("<QQQQ", n, d, k1, len(blob)))
        fh.write(blob)
        fh.write(slabs.astype("<f4").tobytes())


def load_bank_file(path) -> HopBank:
    """Read an HBK1 file back into a bank."""
    with open(path, "rb") as fh:
        head = fh.read(36)
        if len(head) < 36 or head[:4] != b"HBK1":
            raise DataError(f"{path}: not an HBK1 bank file")
        n, d, k1, blob_len = struct.unpack("<QQQQ", head[4:])
        if not 1 <= k1 <= MAX_HOPS + 1:
            raise DataError(f"{path}: {k1} slabs, a bank has 1 to {MAX_HOPS + 1}")
        _check_size(path, fh, 36 + blob_len + 4 * k1 * n * d, "HBK1")
        try:
            provenance = json.loads(fh.read(blob_len).decode("utf-8"))
        except ValueError as exc:
            raise DataError(f"{path}: corrupt provenance blob") from exc
        if not isinstance(provenance, dict):
            raise DataError(f"{path}: provenance blob is not a JSON object")
        payload = np.fromfile(fh, dtype="<f4", count=k1 * n * d)
    slabs = payload.reshape(k1, n, d).astype(np.float32)
    return HopBank(hops=k1 - 1, slabs=slabs, provenance=provenance)


def save_checkpoint(path, params: dict, config: dict) -> None:
    """Write named float32 parameter blocks plus a config JSON blob."""
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"MDL1")
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<Q", len(params)))
        for name in sorted(params):
            data = np.ascontiguousarray(params[name], dtype="<f4")
            enc = name.encode("utf-8")
            fh.write(struct.pack("<I", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<Q", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            fh.write(data.tobytes())


def load_checkpoint(path):
    """Return (params, config) from an MDL1 file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"MDL1":
        raise DataError(f"{path}: not an MDL1 checkpoint")
    pos = 4

    def take(size: int) -> bytes:
        nonlocal pos
        if size > len(raw) - pos:
            raise DataError(f"{path}: checkpoint truncated at byte {len(raw)}, "
                            f"a field at byte {pos} needs {size} bytes")
        pos += size
        return raw[pos - size:pos]

    (blob_len,) = struct.unpack("<Q", take(8))
    try:
        config = json.loads(take(blob_len).decode("utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: corrupt config blob") from exc
    if not isinstance(config, dict):
        raise DataError(f"{path}: config blob is not a JSON object")
    (count,) = struct.unpack("<Q", take(8))
    params = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: parameter name is not UTF-8") from exc
        (ndim,) = struct.unpack("<Q", take(8))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        data = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4")
        params[name] = data.reshape(shape).astype(np.float32)
    if pos != len(raw):
        raise DataError(f"{path}: {len(raw) - pos} bytes after the last block")
    return params, config
