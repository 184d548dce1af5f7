"""Batched lower-bound kernels for Phase 3 region queries.

Phase 3's region queries test every flow pair against two cheap lower
bounds before paying for a network search: the Euclidean lower bound
(ELB, Section III-C3) and the landmark/ALT lower bound (LLB).  The
scalar forms live in :mod:`repro.core.refinement`
(:func:`~repro.core.refinement.euclidean_lower_bound`,
:func:`~repro.core.refinement.landmark_lower_bound`); this module
evaluates them for *all* ``n x n`` flow pairs at once over flat
endpoint arrays — the batched modified-Hausdorff endpoint math — and
returns a symmetric ``bytearray`` mask where ``mask[i * n + j] == 1``
means pair ``(i, j)`` is provably farther than ``eps`` and safe to
prune.  With ``start > 0`` a kernel evaluates only the column block of
flows ``start..n-1`` (every pair touching a flow appended since an
earlier call): ``mask[i * (n - start) + (j - start)]`` for ``j >= start``.

Two implementations per kernel, selected by the resolved backend
(:func:`repro.vec.resolve_vector_backend`):

* ``python`` — the scalar functions in a loop; the reference behaviour.
* ``numpy`` — vectorized, but **decision-identical** by construction:

  - The ELB compares *squared* distances (no per-element ``sqrt``)
    against ``eps**2`` outside a relative guard band of
    :data:`GUARD_BAND`; only pairs landing inside the band — where
    ``hypot``-vs-``sqrt(x*x + y*y)`` rounding could flip a comparison —
    are re-checked with the exact scalar expression.  Rounding error of
    either form is ~1e-16 relative; the band is seven orders of
    magnitude wider.
  - The LLB uses only subtraction, ``abs``, ``min``/``max`` — exact
    IEEE-754 operations with no rounding freedom — so its vectorized
    result is bit-identical to the scalar fold (missing landmark
    coverage is ``nan``, ignored by ``fmax`` exactly as the scalar code
    skips uncovered nodes).

Either way the mask equals the scalar decisions bit-for-bit, so
clusters *and* the Figure-7 counters match with or without numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..roadnet.network import RoadNetwork
from ..vec import get_numpy

#: Relative half-width of the squared-distance window around ``eps**2``
#: inside which the numpy ELB defers to the exact scalar expression.
GUARD_BAND = 1e-9


def _endpoint_coordinates(
    network: RoadNetwork, flow_list: Sequence
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Flat per-flow endpoint coordinates ``(x1, y1, x2, y2)``."""
    x1: list[float] = []
    y1: list[float] = []
    x2: list[float] = []
    y2: list[float] = []
    for flow in flow_list:
        e1, e2 = flow.endpoints
        p1 = network.node_point(e1)
        p2 = network.node_point(e2)
        x1.append(p1.x)
        y1.append(p1.y)
        x2.append(p2.x)
        y2.append(p2.y)
    return x1, y1, x2, y2


def elb_far_mask(
    network: RoadNetwork,
    flow_list: Sequence,
    eps: float,
    backend: str = "python",
    start: int = 0,
) -> bytearray:
    """Mask of flow pairs the Euclidean lower bound prunes.

    ``mask[i * m + (j - start)] == 1`` (``m = n - start``, so the full
    symmetric ``n x n`` mask when ``start`` is 0) iff
    ``euclidean_lower_bound(network, flow_list[i], flow_list[j]) > eps``
    — bit-for-bit the scalar decision, whichever backend runs.  The
    diagonal is always 0.
    """
    from .refinement import euclidean_lower_bound

    n = len(flow_list)
    m = n - start
    if m <= 0:
        return bytearray()
    mask = bytearray(n * m)
    numpy = get_numpy() if backend == "numpy" else None
    if numpy is None:
        for i in range(n):
            for j in range(max(i + 1, start), n):
                if euclidean_lower_bound(network, flow_list[i], flow_list[j]) > eps:
                    mask[i * m + j - start] = 1
                    if i >= start:
                        mask[j * m + i - start] = 1
        return mask

    np = numpy
    x1, y1, x2, y2 = _endpoint_coordinates(network, flow_list)
    ax = np.array([x1, x2], dtype=np.float64)  # (2, n): endpoint, flow
    ay = np.array([y1, y2], dtype=np.float64)

    # Squared distance between endpoint p of flow i and endpoint q of
    # flow j, minimized over the four (p, q) combinations — the squared
    # form of the scalar min-of-four hypot.
    dx = ax[:, None, :, None] - ax[None, :, None, start:]  # (2, 2, n, m)
    dy = ay[:, None, :, None] - ay[None, :, None, start:]
    min_sq = np.min(dx * dx + dy * dy, axis=(0, 1))       # (n, m)

    eps_sq = eps * eps
    far = min_sq > eps_sq * (1.0 + GUARD_BAND)
    uncertain = ~far & (min_sq > eps_sq * (1.0 - GUARD_BAND))
    diagonal = np.arange(m)
    far[diagonal + start, diagonal] = False
    uncertain[diagonal + start, diagonal] = False
    for i, k in zip(*np.nonzero(uncertain)):
        # In-band: settle with the exact scalar expression, evaluated in
        # (lower index, higher index) order like the python path.
        lo, hi = sorted((int(i), int(k) + start))
        far[i, k] = (
            euclidean_lower_bound(network, flow_list[lo], flow_list[hi]) > eps
        )
    return bytearray(far.astype(np.uint8).tobytes())


def llb_far_mask(
    oracle,
    flow_list: Sequence,
    eps: float,
    backend: str = "python",
    start: int = 0,
) -> bytearray:
    """Mask of flow pairs the landmark lower bound prunes.

    Laid out like :func:`elb_far_mask`: ``mask[i * m + (j - start)] == 1``
    iff ``landmark_lower_bound(oracle, flow_list[i], flow_list[j]) > eps``.
    The numpy path is *bit-identical* (not merely decision-identical):
    the bound composes only exact IEEE operations.
    """
    from .refinement import landmark_lower_bound

    n = len(flow_list)
    m = n - start
    if m <= 0:
        return bytearray()
    mask = bytearray(n * m)
    numpy = get_numpy() if backend == "numpy" else None
    if numpy is None:
        for i in range(n):
            for j in range(max(i + 1, start), n):
                if landmark_lower_bound(oracle, flow_list[i], flow_list[j]) > eps:
                    mask[i * m + j - start] = 1
                    if i >= start:
                        mask[j * m + i - start] = 1
        return mask

    np = numpy
    endpoints: list[int] = []
    for flow in flow_list:
        endpoints.extend(flow.endpoints)
    # (2n, L) landmark-distance rows; nan marks uncovered nodes.
    rows = np.array(oracle.landmark_table_rows(endpoints), dtype=np.float64)
    rows = rows.reshape(n, 2, -1)  # (flow, endpoint, landmark)

    # |d(L, t) - d(L, s)| per endpoint pair per landmark; nan wherever
    # either side is uncovered.  fmax folds from 0.0 exactly as the
    # scalar loop starts at best = 0.0 and skips uncovered landmarks
    # (fmax(x, nan) == x).
    diff = np.abs(
        rows[:, :, None, None, :] - rows[None, None, start:, :, :]
    )  # (n, 2, m, 2, L)
    pair_bound = np.full(diff.shape[:4], 0.0)
    for k in range(diff.shape[4]):
        pair_bound = np.fmax(pair_bound, diff[..., k])
    l11 = pair_bound[:, 0, :, 0]
    l12 = pair_bound[:, 0, :, 1]
    l21 = pair_bound[:, 1, :, 0]
    l22 = pair_bound[:, 1, :, 1]
    forward = np.maximum(np.minimum(l11, l12), np.minimum(l21, l22))
    backward = np.maximum(np.minimum(l11, l21), np.minimum(l12, l22))
    bound = np.maximum(forward, backward)

    far = bound > eps
    diagonal = np.arange(m)
    far[diagonal + start, diagonal] = False
    return bytearray(far.astype(np.uint8).tobytes())
