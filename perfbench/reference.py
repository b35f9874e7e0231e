"""Plain-numpy forward of the eval-mode HAP classifier (paper Eq. 13-21).

Written from the equations, not from the program's autograd code, so
it can check the program's ``GraphClassifier.logits`` independently:

- GCN layers (Eq. 12): ``act(D^-1/2 (A + I) D^-1/2 H W + b)``;
- GCont (Eq. 13): ``C = H T``;
- MOA (Eq. 14-15) with the ``project`` relaxation
  ``psi(C) = C^T C / N``: ``M = softmax_row(LeakyReLU(C a_row + psi(C) a_col))``,
  averaged over heads;
- cluster formation (Eq. 17-18): ``H' = M^T H``, ``A' = M^T A M``;
- eval-mode soft sampling (Eq. 19, no Gumbel noise):
  ``A'' = sym(softmax_row(log(A' + eps) / tau))``;
- head (Eq. 20-21): the level readouts (mean over cluster nodes) are
  summed and fed through ``fc2(relu(fc1(.)))``.
"""

from __future__ import annotations

import numpy as np


def _leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _activate(x: np.ndarray, name: str) -> np.ndarray:
    if name == "leaky_relu":
        return _leaky_relu(x, 0.01)
    if name == "relu":
        return np.maximum(x, 0.0)
    raise ValueError(f"reference forward has no activation {name!r}")


def _gcn(adjacency: np.ndarray, h: np.ndarray, layer) -> np.ndarray:
    a_tilde = adjacency + np.eye(adjacency.shape[0])
    inv_sqrt = (a_tilde.sum(axis=1) + 1e-8) ** -0.5
    normalized = inv_sqrt[:, None] * a_tilde * inv_sqrt[None, :]
    out = normalized @ (h @ layer.weight.data) + layer.bias.data
    return _activate(out, layer.activation)


def _coarsen(adjacency: np.ndarray, h: np.ndarray, coarsening):
    n = h.shape[0]
    content = h @ coarsening.gcont.transform.data  # Eq. 13
    moa = coarsening.moa
    if moa.relaxation != "project":
        raise ValueError("reference forward covers the 'project' relaxation only")
    relaxed = content.T @ content / n
    heads = []
    for head in range(moa.num_heads):
        rows = content @ moa.att_row.data[head]
        cols = relaxed @ moa.att_col.data[head]
        scores = _leaky_relu(rows[:, None] + cols[None, :], moa.negative_slope)
        heads.append(_softmax_rows(scores))  # Eq. 15
    assignment = np.mean(heads, axis=0)
    h_coarse = assignment.T @ h  # Eq. 17
    adj_coarse = assignment.T @ adjacency @ assignment  # Eq. 18
    if coarsening.soft_sampling and adj_coarse.shape[0] > 1:
        sampled = _softmax_rows(np.log(adj_coarse + 1e-9) / coarsening.tau)
        adj_coarse = (sampled + sampled.T) * 0.5  # Eq. 19, symmetrised
    return adj_coarse, h_coarse


def hap_logits(model, graph) -> np.ndarray:
    """Class logits of ``model`` (an eval-mode HAP ``GraphClassifier``
    with GCN encoders) for ``graph``, computed with numpy alone."""
    embedder = model.embedder
    adjacency = np.asarray(graph.adjacency, dtype=np.float64)
    h = np.asarray(graph.features, dtype=np.float64)
    total = None
    for encoder, pooling in zip(embedder.encoders, embedder.coarsenings):
        for layer in encoder.layers:
            h = _gcn(adjacency, h, layer)
        adjacency, h = _coarsen(adjacency, h, pooling.coarsening)
        readout = h.mean(axis=0)
        total = readout if total is None else total + readout
    hidden = np.maximum(total @ model.fc1.weight.data + model.fc1.bias.data, 0.0)
    return hidden @ model.fc2.weight.data + model.fc2.bias.data
