"""Input files for the file-based workloads, made with plain numpy.

Nothing here imports diffbank, so a change to ``diffbank.synth`` or
``diffbank.io`` cannot change what the benchmark feeds the program. The
files follow the formats that ``diffbank.io`` documents: a tab-separated
edge list, an FMX1 feature matrix and a tab-separated label file.

The graph is ``n * DEGREE / 2`` uniform random node pairs with self-loops
and duplicates removed. Neither the pairing model for regular graphs, whose
success chance at degree 20 is about e^-100 whatever n is, nor a block model,
which draws O(n^2) pairs, works here. Labels are planted from a
one-hop signal: the mean over each node's neighbours of a random projection
of their features, plus noise, cut into equal-frequency classes. A model
that sees hop 1 can learn them; hop 0 alone carries nothing.
"""

import hashlib
import struct
from pathlib import Path

import numpy as np

__all__ = ["write_planted", "decimal_rows"]

SPLITS = ("train", "val", "test")
DEGREE = 20     # mean degree
DIM = 64        # feature channels
CLASSES = 4
NOISE = 0.5     # label noise, relative to the one-hop signal's spread


def _digits(v: np.ndarray, width: int) -> np.ndarray:
    """(len(v), width) ASCII digits of non-negative ints, right-aligned;
    leading positions are 0 bytes, which ``decimal_rows`` drops."""
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    ndig = 1 + (v[:, None] >= powers[None, :-1]).sum(axis=1)
    dig = (v[:, None] // powers[None, :]) % 10 + ord("0")
    used = np.arange(width)[None, :] >= (width - ndig)[:, None]
    return np.where(used, dig, 0).astype(np.uint8)


def decimal_rows(columns, suffix: bytes) -> bytes:
    """Text rows ``c0<TAB>c1...<suffix>`` of non-negative int columns,
    written without a per-row Python loop."""
    cols = [np.asarray(c, dtype=np.int64) for c in columns]
    rows = cols[0].size
    width = max(1, len(str(int(max((c.max() for c in cols if c.size), default=0)))))
    parts = []
    for i, c in enumerate(cols):
        if i:
            parts.append(np.full((rows, 1), ord("\t"), dtype=np.uint8))
        parts.append(_digits(c, width))
    parts.append(np.tile(np.frombuffer(suffix, dtype=np.uint8), (rows, 1)))
    block = np.concatenate(parts, axis=1).ravel()
    return block[block != 0].tobytes()


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def write_planted(n: int, seed: int, outdir: Path) -> dict:
    """Write edges.tsv, features.fmx and labels.tsv for ``n`` nodes.

    Returns the file paths, the sha256 of each file's content and the
    number of stored (directed) graph entries.
    """
    rng = np.random.default_rng([seed, n, DEGREE, DIM])
    draw = rng.integers(0, n, size=(n * DEGREE // 2, 2), dtype=np.int64)
    draw = draw[draw[:, 0] != draw[:, 1]]
    key = np.sort(np.minimum(draw[:, 0], draw[:, 1]) * n
                  + np.maximum(draw[:, 0], draw[:, 1]))
    key = key[np.concatenate([[True], key[1:] != key[:-1]])]
    key = key[rng.permutation(key.size)]
    src, dst = key // n, key % n

    x = rng.standard_normal((n, DIM)).astype(np.float32)
    w = rng.standard_normal(DIM)
    proj = x.astype(np.float64) @ (w / np.linalg.norm(w))
    deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
    nbr = (np.bincount(src, weights=proj[dst], minlength=n)
           + np.bincount(dst, weights=proj[src], minlength=n))
    hop1 = nbr / np.maximum(deg, 1)
    score = hop1 / hop1.std() + NOISE * rng.standard_normal(n)
    cuts = np.quantile(score, np.arange(1, CLASSES) / CLASSES)
    labels = np.searchsorted(cuts, score).astype(np.int64)
    perm = rng.permutation(n)
    bounds = (0, n // 2, n // 2 + n // 4, n)

    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"edges": outdir / "edges.tsv", "features": outdir / "features.fmx",
             "labels": outdir / "labels.tsv"}
    with open(paths["edges"], "wb") as fh:
        fh.write(f"# nodes: {n}\n".encode())
        fh.write(decimal_rows([src, dst], b"\n"))
    with open(paths["features"], "wb") as fh:
        fh.write(b"FMX1" + struct.pack("<QQ", n, DIM))
        fh.write(x.astype("<f4").tobytes())
    with open(paths["labels"], "wb") as fh:
        for split, lo, hi in zip(SPLITS, bounds[:-1], bounds[1:]):
            ids = np.sort(perm[lo:hi])
            fh.write(decimal_rows([ids, labels[ids]], f"\t{split}\n".encode()))
    return {"paths": {k: str(p) for k, p in paths.items()},
            "sha256": {k: _sha256(p) for k, p in paths.items()},
            "stored_entries": int(2 * key.size)}
