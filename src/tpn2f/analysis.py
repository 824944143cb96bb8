"""Interpretability reports: role/filler assignments, relation-vector clusters.

The encoder's softmax scores say which dictionary columns each token leaned
on; scores below 0.1 are dropped.  The decoder's relation unbinding vectors
are collected per emitted symbol, averaged, projected to 2-D with PCA, and
clustered with k-means.  Reports are plain CSV and static SVG, byte-stable
across reruns.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np

from .model import Tpn2fModel, _encoder_positions
from .training import greedy_decode_with_vectors

SCORE_THRESHOLD = 0.1


@dataclass
class AssignmentRecord:
    """Significant filler/role choices for one token position."""

    token: str
    position: int
    kept_fillers: list[tuple[int, float]]
    kept_roles: list[tuple[int, float]]


@dataclass
class RelationVectorStats:
    """Mean relation unbinding vector over the steps that emitted a symbol."""

    relation: str
    mean_vector: np.ndarray
    count: int


def threshold_scores(scores: Sequence[float], threshold: float = SCORE_THRESHOLD
                     ) -> list[tuple[int, float]]:
    """Keep (index, score) pairs with score >= threshold, best first."""
    kept = [(i, float(s)) for i, s in enumerate(scores) if s >= threshold]
    kept.sort(key=lambda p: (-p[1], p[0]))
    return kept


def extract_assignments(model: Tpn2fModel, tokens: Sequence[str]) -> list[AssignmentRecord]:
    """Run the binding encoder and record each token's surviving scores."""
    if model.variant.encoder != "tpr":
        raise ValueError("assignment extraction needs the binding encoder")
    _, scores, _ = _encoder_positions(model.vocab.encode_text(tokens), model.encoder)
    return [AssignmentRecord(token=tok, position=pos, kept_fillers=threshold_scores(a_f),
                             kept_roles=threshold_scores(a_r))
            for pos, (tok, (a_f, a_r)) in enumerate(zip(tokens, scores))]


def collect_relation_vectors(model: Tpn2fModel, samples, max_len: int) -> list[RelationVectorStats]:
    """Average unbinding vectors per relation over greedy decodes of <= ``max_len`` steps."""
    if not samples:
        raise ValueError("empty dataset")
    sums: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    for sample in samples:
        token_ids = model.vocab.encode_text(sample.text)
        tuples, vectors = greedy_decode_with_vectors(model, token_ids, max_len)
        for tup, vec in zip(tuples, vectors):
            if vec.size == 0:
                continue
            sums[tup.relation] = sums.get(tup.relation, 0.0) + vec
            counts[tup.relation] = counts.get(tup.relation, 0) + 1
    return [RelationVectorStats(rel, sums[rel] / counts[rel], counts[rel])
            for rel in sorted(sums)]


# ---------------------------------------------------------------------------
# PCA and k-means


def pca_project(vectors, target_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean-centered projection onto the top covariance eigenvectors.

    Returns (projected points, explained-variance ratios), components ordered
    by descending eigenvalue.  All-identical input degenerates to zero
    projections with a warning.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need at least 2 vectors, got array of shape {x.shape}")
    if not 1 <= target_dim <= x.shape[1]:
        raise ValueError(f"target_dim {target_dim} outside 1..{x.shape[1]}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (x.shape[0] - 1)
    total = float(np.trace(cov))
    if total <= 1e-300:
        warnings.warn("zero-variance input: projections are all zero")
        return np.zeros((x.shape[0], target_dim)), np.zeros(target_dim)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:target_dim]
    components = eigvecs[:, order]
    # Deterministic sign: largest-magnitude entry of each component positive.
    for j in range(components.shape[1]):
        k = int(np.argmax(np.abs(components[:, j])))
        if components[k, j] < 0:
            components[:, j] = -components[:, j]
    ratios = np.maximum(eigvals[order], 0.0) / total
    return centered @ components, ratios


def kmeans(points, k: int, seed: int = 0, max_iter: int = 300,
           tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd iterations from k-means++ seeding; deterministic under the seed.

    Returns (labels, centroids, inertia).
    """
    x = np.asarray(points, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(n)]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j:] = centroids[0]
            break
        centroids[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centroids[j]) ** 2).sum(axis=1))

    for _ in range(max_iter):
        dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = dists.argmin(axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            members = x[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its centroid.
                new_centroids[j] = x[dists.min(axis=1).argmax()]
        shift = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if shift < tol:
            break
    dists = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = dists.argmin(axis=1)
    inertia = float(dists[np.arange(n), labels].sum())
    return labels, centroids, inertia


# ---------------------------------------------------------------------------
# report files


@dataclass
class ClusterReport:
    """2-D projected relation vectors with their k-means labels."""

    relations: list[str]
    points: np.ndarray            # (n, 2)
    labels: np.ndarray            # (n,)
    k: int
    seed: int
    inertia: float
    explained_variance: np.ndarray = field(default_factory=lambda: np.zeros(2))


def cluster_relation_vectors(stats: Sequence[RelationVectorStats], k: int,
                             seed: int = 0) -> ClusterReport:
    """Average vectors -> PCA to 2-D -> k-means, as one pipeline step."""
    if len(stats) < 2:
        raise ValueError("need at least 2 relation symbols to cluster")
    vectors = np.stack([s.mean_vector for s in stats])
    dim = min(2, vectors.shape[1])
    points, ratios = pca_project(vectors, dim)
    if dim == 1:
        points = np.hstack([points, np.zeros_like(points)])
        ratios = np.concatenate([ratios, [0.0]])
    labels, _, inertia = kmeans(points, min(k, len(stats)), seed=seed)
    return ClusterReport(relations=[s.relation for s in stats], points=points,
                         labels=labels, k=min(k, len(stats)), seed=seed,
                         inertia=inertia, explained_variance=ratios)


_PALETTE = ["#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee", "#aa3377",
            "#bbbbbb", "#000000"]


def _svg_scatter(report: ClusterReport | None) -> str:
    w, h, margin = 480, 360, 40
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>']
    if report is not None and len(report.relations):
        xs, ys = report.points[:, 0], report.points[:, 1]
        spanx = max(xs.max() - xs.min(), 1e-12)
        spany = max(ys.max() - ys.min(), 1e-12)
        for i, rel in enumerate(report.relations):
            px = margin + (xs[i] - xs.min()) / spanx * (w - 2 * margin)
            py = h - margin - (ys[i] - ys.min()) / spany * (h - 2 * margin)
            color = _PALETTE[int(report.labels[i]) % len(_PALETTE)]
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="5" fill="{color}"/>')
            parts.append(f'<text x="{px + 7:.2f}" y="{py + 4:.2f}" '
                         f'font-size="10">{escape(rel)}</text>')
        parts.append(f'<text x="{margin}" y="20" font-size="12">'
                     f'relation unbinding vectors, k={report.k}, seed={report.seed}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _svg_roles(assignments: Sequence[AssignmentRecord]) -> str:
    w = max(160, 110 * (len(assignments) or 1) + 20)
    h = 130
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>']
    for rec in assignments:
        x = 10 + 110 * rec.position
        parts.append(f'<text x="{x}" y="30" font-size="12" font-weight="bold">{escape(rec.token)}</text>')
        role_txt = " ".join(f"r{i}:{s:.2f}" for i, s in rec.kept_roles[:3]) or "-"
        fill_txt = " ".join(f"f{i}:{s:.2f}" for i, s in rec.kept_fillers[:3]) or "-"
        parts.append(f'<text x="{x}" y="60" font-size="10">{role_txt}</text>')
        parts.append(f'<text x="{x}" y="85" font-size="10">{fill_txt}</text>')
    parts.append('<text x="10" y="115" font-size="9">'
                 'rows: token, kept roles, kept fillers (scores &#8805; 0.1)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(assignments: Sequence[AssignmentRecord],
                clusters: ClusterReport | None, out_dir) -> list[Path]:
    """Write assignments.csv, clusters.csv, scatter.svg, and roles.svg.

    assignments.csv carries one row per kept entry; each row fills either the
    role or the filler column.  Output is deterministic for identical inputs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["token", "position", "role", "filler", "score"])
    for rec in assignments:
        for role, score in rec.kept_roles:
            writer.writerow([rec.token, rec.position, role, "", f"{score:.6f}"])
        for filler, score in rec.kept_fillers:
            writer.writerow([rec.token, rec.position, "", filler, f"{score:.6f}"])
    assignments_csv = out / "assignments.csv"
    assignments_csv.write_text(buf.getvalue(), encoding="utf-8")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["relation", "x", "y", "cluster"])
    if clusters is not None:
        for i, rel in enumerate(clusters.relations):
            writer.writerow([rel, f"{clusters.points[i, 0]:.6f}",
                             f"{clusters.points[i, 1]:.6f}", int(clusters.labels[i])])
    clusters_csv = out / "clusters.csv"
    clusters_csv.write_text(buf.getvalue(), encoding="utf-8")

    scatter_svg = out / "scatter.svg"
    scatter_svg.write_text(_svg_scatter(clusters), encoding="utf-8")
    roles_svg = out / "roles.svg"
    roles_svg.write_text(_svg_roles(assignments), encoding="utf-8")
    return [assignments_csv, clusters_csv, scatter_svg, roles_svg]
