"""Dense predictors over hop banks, with hand-written gradients.

Two backbones share one calling convention: parameters live in a flat
``dict[str, ndarray]``, ``forward`` takes the bank slabs plus a node id
batch and returns ``(logits, hidden, cache)``, and ``backward`` consumes
the cache with the logits gradient and returns a gradient dict with the
same keys as the parameters. Everything is plain numpy; float32 is the
training dtype and float64 is used for finite-difference verification.
The bank rows are inputs, not parameters, so ``backward`` never forms a
gradient with respect to them (nor to the GRU's zero initial state).

``ConcatMLP`` flattens the K+1 hop rows of each node into one vector and
runs it through a ReLU trunk. ``HopGRU`` feeds the hop rows in order
through a shared GRU cell (update form s = (1-z) * cand + z * s_prev) and
reads out either the final state or the mean state. Both end in an affine
projection to the bank's channel width, whose output is the per-node
hidden state reused by staged re-propagation, followed by a linear
classifier. That projection is deliberately activation-free so the hidden
state can carry signed values on the same scale as the input features.

Dropout is the inverted kind and is driven by an explicit generator
argument; evaluation passes train=False and gets a deterministic network.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "ConcatMLP",
    "HopGRU",
    "TrainConfig",
    "init_adam",
    "adam_step",
    "softmax_xent",
    "accuracy",
    "roc_auc",
    "model_scores",
    "label_features",
]


@dataclass
class TrainConfig:
    lr: float = 0.01
    weight_decay: float = 0.0
    batch_size: int = 512
    epochs: int = 100
    trunk: tuple = (256, 256)
    state_dim: int = 64
    dropout: float = 0.0
    input_dropout: float = 0.0
    readout: str = "last"
    metric: str = "accuracy"
    patience: int = 50
    seed: int = 0

    def __post_init__(self):
        self.trunk = tuple(self.trunk)
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if not (0.0 <= self.dropout < 1.0 and 0.0 <= self.input_dropout < 1.0):
            raise ConfigError("dropout rates must lie in [0, 1)")
        if self.readout not in ("last", "mean"):
            raise ConfigError(f"unknown readout {self.readout!r}")
        if self.metric not in ("accuracy", "roc_auc"):
            raise ConfigError(f"unknown metric {self.metric!r}")


def _glorot(rng, fan_in, fan_out, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def _head_shapes(fan_in: int, width: int, num_classes: int) -> dict:
    """The hidden-state projection and the classifier after a backbone."""
    return {"pre.w": (fan_in, width), "pre.b": (width,),
            "cls.w": (width, num_classes), "cls.b": (num_classes,)}


def _init(shapes: dict, seed: int, dtype) -> dict:
    """Glorot-uniform matrices and zero vectors, drawn in ``shapes`` order."""
    rng = np.random.default_rng(seed)
    return {name: _glorot(rng, *shape, dtype) if len(shape) == 2
            else np.zeros(shape, dtype=dtype) for name, shape in shapes.items()}


def _dropout_mask(rng, shape, rate, dtype):
    keep = np.dtype(dtype).type(1.0 - rate)
    return (rng.random(shape) < keep).astype(dtype) / keep


class ConcatMLP:
    """MLP over the concatenated hop rows of each node."""

    def __init__(self, hops: int, width: int, num_classes: int,
                 trunk=TrainConfig.trunk):
        self.hops = hops
        self.width = width
        self.num_classes = num_classes
        self.trunk = tuple(int(w) for w in trunk)
        self.in_dim = (hops + 1) * width

    def shapes(self) -> dict:
        """Parameter name -> shape, in the order ``init`` draws them."""
        dims = (self.in_dim, *self.trunk)
        out = {}
        for i, (fan_in, w) in enumerate(zip(dims, dims[1:])):
            out.update({f"trunk{i}.w": (fan_in, w), f"trunk{i}.b": (w,)})
        return {**out, **_head_shapes(dims[-1], self.width, self.num_classes)}

    def init(self, seed: int = 0, dtype=np.float32) -> dict:
        return _init(self.shapes(), seed, dtype)

    def forward(self, params, slabs, ids, *, train=False, dropout=0.0,
                input_dropout=0.0, rng=None):
        if slabs.shape[0] != self.hops + 1:
            raise ValueError(f"bank has {slabs.shape[0] - 1} hops, model expects {self.hops}")
        dtype = params["cls.w"].dtype
        x = slabs[:, ids, :].transpose(1, 0, 2).reshape(len(ids), -1).astype(
            dtype, copy=False)
        cache = {"inputs": [], "masks": [], "x_mask": None}
        if train and input_dropout > 0.0:
            m = _dropout_mask(rng, x.shape, input_dropout, dtype)
            x = x * m
            cache["x_mask"] = m
        h = x
        cache["gates"] = []
        for i in range(len(self.trunk)):
            cache["inputs"].append(h)
            a = h @ params[f"trunk{i}.w"] + params[f"trunk{i}.b"]
            cache["gates"].append(a > 0)
            h = np.maximum(a, 0)
            if train and dropout > 0.0:
                m = _dropout_mask(rng, h.shape, dropout, dtype)
                h = h * m
                cache["masks"].append(m)
            else:
                cache["masks"].append(None)
        cache["pre_in"] = h
        hidden = h @ params["pre.w"] + params["pre.b"]
        cache["hidden"] = hidden
        logits = hidden @ params["cls.w"] + params["cls.b"]
        return logits, hidden, cache

    def backward(self, params, cache, dlogits):
        grads = {}
        hidden = cache["hidden"]
        grads["cls.w"] = hidden.T @ dlogits
        grads["cls.b"] = dlogits.sum(axis=0)
        dh = dlogits @ params["cls.w"].T
        grads["pre.w"] = cache["pre_in"].T @ dh
        grads["pre.b"] = dh.sum(axis=0)
        # each layer pulls dh through the weights above it, so the gradient
        # with respect to the bank rows is never formed
        upper = "pre.w"
        for i in reversed(range(len(self.trunk))):
            dh = dh @ params[upper].T
            upper = f"trunk{i}.w"
            if cache["masks"][i] is not None:
                dh = dh * cache["masks"][i]
            inp = cache["inputs"][i]
            dh = dh * cache["gates"][i]
            grads[f"trunk{i}.w"] = inp.T @ dh
            grads[f"trunk{i}.b"] = dh.sum(axis=0)
        return grads


class HopGRU:
    """Shared GRU cell scanned across hop slabs, then an affine readout."""

    def __init__(self, hops: int, width: int, num_classes: int,
                 state_dim: int = TrainConfig.state_dim,
                 readout: str = TrainConfig.readout):
        if readout not in ("last", "mean"):
            raise ConfigError(f"unknown readout {readout!r}")
        self.hops = hops
        self.width = width
        self.num_classes = num_classes
        self.state_dim = state_dim
        self.readout = readout

    def shapes(self) -> dict:
        """Parameter name -> shape, in the order ``init`` draws them."""
        d, h = self.width, self.state_dim
        out = {}
        for gate in ("r", "z", "c"):
            out.update({f"gru.w{gate}": (d, h), f"gru.u{gate}": (h, h), f"gru.b{gate}": (h,)})
        return {**out, **_head_shapes(h, self.width, self.num_classes)}

    def init(self, seed: int = 0, dtype=np.float32) -> dict:
        return _init(self.shapes(), seed, dtype)

    def forward(self, params, slabs, ids, *, train=False, dropout=0.0,
                input_dropout=0.0, rng=None):
        if slabs.shape[0] != self.hops + 1:
            raise ValueError(f"bank has {slabs.shape[0] - 1} hops, model expects {self.hops}")
        dtype = params["cls.w"].dtype
        batch = len(ids)
        s = np.zeros((batch, self.state_dim), dtype=dtype)
        steps = []
        states = [s]
        for k in range(self.hops + 1):
            x = slabs[k][ids].astype(dtype, copy=False)
            xm = None
            if train and input_dropout > 0.0:
                xm = _dropout_mask(rng, x.shape, input_dropout, dtype)
                x = x * xm
            r = _sigmoid(x @ params["gru.wr"] + s @ params["gru.ur"] + params["gru.br"])
            z = _sigmoid(x @ params["gru.wz"] + s @ params["gru.uz"] + params["gru.bz"])
            rs = r * s
            c = np.tanh(x @ params["gru.wc"] + rs @ params["gru.uc"] + params["gru.bc"])
            s_next = (1.0 - z) * c + z * s
            steps.append({"x": x, "xm": xm, "s_prev": s, "r": r, "z": z, "c": c})
            s = s_next
            states.append(s)

        if self.readout == "last":
            pooled = s
        else:
            pooled = np.mean(np.stack(states[1:], axis=0), axis=0)
        pm = None
        if train and dropout > 0.0:
            pm = _dropout_mask(rng, pooled.shape, dropout, dtype)
            pooled = pooled * pm
        hidden = pooled @ params["pre.w"] + params["pre.b"]
        logits = hidden @ params["cls.w"] + params["cls.b"]
        cache = {"steps": steps, "pooled": pooled, "pm": pm, "hidden": hidden,
                 "batch": batch}
        return logits, hidden, cache

    def backward(self, params, cache, dlogits):
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        hidden = cache["hidden"]
        grads["cls.w"] = hidden.T @ dlogits
        grads["cls.b"] = dlogits.sum(axis=0)
        dh = dlogits @ params["cls.w"].T
        grads["pre.w"] = cache["pooled"].T @ dh
        grads["pre.b"] = dh.sum(axis=0)
        dpool = dh @ params["pre.w"].T
        if cache["pm"] is not None:
            dpool = dpool * cache["pm"]

        steps = cache["steps"]
        n_steps = len(steps)
        if self.readout == "last":
            ds = dpool
            per_step = None
        else:
            ds = dpool / n_steps
            per_step = dpool / n_steps

        for k in reversed(range(n_steps)):
            st = steps[k]
            x, s_prev, r, z, c = st["x"], st["s_prev"], st["r"], st["z"], st["c"]
            dz = ds * (s_prev - c)
            dc = ds * (1.0 - z)
            dc_pre = dc * (1.0 - c * c)
            grads["gru.wc"] += x.T @ dc_pre
            grads["gru.uc"] += (r * s_prev).T @ dc_pre
            grads["gru.bc"] += dc_pre.sum(axis=0)
            drs = dc_pre @ params["gru.uc"].T
            dr = drs * s_prev
            dz_pre = dz * z * (1.0 - z)
            grads["gru.wz"] += x.T @ dz_pre
            grads["gru.uz"] += s_prev.T @ dz_pre
            grads["gru.bz"] += dz_pre.sum(axis=0)
            dr_pre = dr * r * (1.0 - r)
            grads["gru.wr"] += x.T @ dr_pre
            grads["gru.ur"] += s_prev.T @ dr_pre
            grads["gru.br"] += dr_pre.sum(axis=0)
            if k == 0:
                break  # the initial state is a constant and takes no gradient
            ds_prev = ds * z
            ds_prev += drs * r
            ds_prev += dz_pre @ params["gru.uz"].T
            ds_prev += dr_pre @ params["gru.ur"].T
            ds = ds_prev
            if per_step is not None:
                ds = ds + per_step
        return grads


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_xent(logits, labels):
    """Mean cross-entropy over every row given.

    Returns (loss, dlogits) where dlogits already carries the 1/rows factor.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    rows = logits.shape[0]
    if rows == 0:
        raise ValueError("no rows in cross-entropy")
    if np.any(labels < 0) or np.any(labels >= logits.shape[1]):
        raise DataError("label outside [0, num_classes)")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.sum(np.exp(shifted), axis=1))
    loss = float(np.mean(logz - shifted[np.arange(rows), labels]))
    soft = np.exp(shifted - logz[:, None])
    soft[np.arange(rows), labels] -= 1.0
    return loss, soft / rows


def init_adam(params: dict) -> dict:
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
    }


def adam_step(params, grads, state, lr, *, weight_decay=0.0,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """In-place Adam update with decoupled weight decay.

    The decay term subtracts lr * weight_decay * p computed from the
    pre-update parameter, so a zero gradient still shrinks weights by
    exactly (1 - lr * weight_decay) per step. Each tensor's update runs the
    textbook expression's operations in its order, writing into one
    two-slot scratch buffer, so it is bit-identical to that expression.
    """
    state["t"] += 1
    t = state["t"]
    b1c = 1.0 - beta1 ** t
    b2c = 1.0 - beta2 ** t
    for k, p in params.items():
        g = grads[k].astype(p.dtype, copy=False)
        m = state["m"][k]
        v = state["v"][k]
        scratch, update = np.empty((2,) + p.shape, dtype=p.dtype)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=scratch)
        v *= beta2
        np.multiply(1.0 - beta2, g, out=scratch)
        v += np.multiply(scratch, g, out=scratch)
        np.divide(m, b1c, out=update)
        np.divide(v, b2c, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        update /= scratch
        if weight_decay:
            update += np.multiply(weight_decay, p, out=scratch)
        update *= lr
        p -= update
    return state


def accuracy(logits, labels):
    logits = np.asarray(logits)
    if logits.shape[0] == 0:
        raise ValueError("no rows in accuracy")
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def roc_auc(scores, labels):
    """Binary ROC AUC from scores, ties handled by midranks."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = int(s.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("ROC AUC needs both classes present")
    # a run of tied scores at sorted positions first..first+size-1 shares
    # the midrank first + (size + 1) / 2; NaN scores are runs of one
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    first = np.flatnonzero(np.r_[True, sorted_s[1:] != sorted_s[:-1]])
    size = np.diff(np.r_[first, s.size])
    ranks = np.empty(s.size, dtype=np.float64)
    ranks[order] = np.repeat(first + (size + 1) / 2, size)
    r_pos = ranks[pos].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def model_scores(logits):
    """Positive-class score for binary AUC: logit difference."""
    logits = np.asarray(logits)
    if logits.shape[1] != 2:
        raise ValueError("ROC AUC is defined here for two-class outputs")
    return logits[:, 1] - logits[:, 0]


def label_features(lv, operator=None):
    """One-hot training labels as features, zero elsewhere.

    When an operator is given the indicator block is diffused once, which
    for the random-walk kind keeps every row sum at most 1.
    """
    from .graph import spmm

    n = lv.labels.shape[0]
    out = np.zeros((n, lv.num_classes), dtype=np.float32)
    train = np.nonzero(lv.train_mask)[0]
    out[train, lv.labels[train]] = 1.0
    if operator is not None:
        out = spmm(operator, out)
    return out
