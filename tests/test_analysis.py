"""Threshold filtering, PCA, k-means, and report emission."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from tpn2f.analysis import (
    AssignmentRecord,
    RelationVectorStats,
    cluster_relation_vectors,
    collect_relation_vectors,
    emit_report,
    extract_assignments,
    kmeans,
    pca_project,
    threshold_scores,
)
from tpn2f.data import build_vocabularies, preprocess_samples
from tpn2f.model import ModelDims, build_model, encode_sequence, encoder_step
from tpn2f.synthetic import make_micro_dataset, micro_config
from tpn2f.tensor import Tensor

SVG = "{http://www.w3.org/2000/svg}"


# ---------------------------------------------------------------------------
# thresholding


def test_threshold_keeps_scores_at_or_above_cutoff():
    kept = threshold_scores([0.05, 0.70, 0.25])
    assert kept == [(1, 0.70), (2, 0.25)]


def test_threshold_uniform_over_150_is_empty():
    assert threshold_scores([1 / 150] * 150) == []


def test_threshold_boundary_is_inclusive():
    assert threshold_scores([0.1, 0.9]) == [(1, 0.9), (0, 0.1)]


def test_extract_assignments_scores_sum_to_one():
    cfg = micro_config()
    samples = preprocess_samples(make_micro_dataset(8, seed=0), positions=2)
    vocab = build_vocabularies(samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(0))
    records = extract_assignments(model, samples[0].text)
    assert len(records) == len(samples[0].text)
    for rec in records:
        assert all(s >= 0.1 for _, s in rec.kept_fillers)
        assert all(s >= 0.1 for _, s in rec.kept_roles)
        assert rec.token in samples[0].text


def test_extract_assignments_reads_the_scores_of_the_encoders_own_steps():
    """The records keep the scores of a step-by-step ``encoder_step`` loop from
    a zero state, exactly, and the binding they belong to is the memory row
    ``encode_sequence`` gives that position."""
    cfg = micro_config()
    samples = preprocess_samples(make_micro_dataset(8, seed=1), positions=2)
    vocab = build_vocabularies(samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(4))
    for sample in samples[:4]:
        ids = vocab.encode_text(sample.text)
        binding, cell = model.encoder.lstm.zero_state()
        bindings, want = [], []
        for tid in ids:
            binding, cell, (a_f, a_r) = encoder_step(tid, binding, cell, model.encoder)
            bindings.append(binding.data)
            want.append((threshold_scores(a_f), threshold_scores(a_r)))
        records = extract_assignments(model, sample.text)
        assert [(r.kept_fillers, r.kept_roles) for r in records] == want
        assert [r.position for r in records] == list(range(len(ids)))
        _, memory = encode_sequence(ids, model.encoder)
        assert np.array_equal(memory.data, np.stack(bindings))


# ---------------------------------------------------------------------------
# relation-vector collection


class _ScriptedModel:
    """Greedy-decode stub emitting a fixed tuple/vector trace, then EOS."""

    def __init__(self, vocab, trace):
        self.vocab = vocab
        self.dims = ModelDims(positions=2)
        self.trace = trace
        self.step = 0

    def encode(self, ids):
        self.step = 0
        return Tensor(np.zeros(2)), Tensor(np.zeros((1, 2)))

    def initial_decoder_state(self, pooled):
        return Tensor(np.zeros(2)), Tensor(np.zeros(2))

    def project_contexts(self, memory):
        return Tensor(np.zeros((1, 2)))

    def decode_step(self, prev, h, c, proj):
        return h, c

    def head_logits(self, hidden):
        rel = np.zeros(self.vocab.n_relations)
        if self.step < len(self.trace):
            symbol, vector = self.trace[self.step]
            rel[self.vocab.relation_id(symbol)] = 5.0
            out = Tensor(np.asarray(vector, dtype=float))
        else:
            rel[self.vocab.relation_id("EOS")] = 5.0
            out = Tensor(np.zeros(2))
        self.step += 1
        args = [Tensor(np.zeros(self.vocab.n_arguments)) for _ in range(2)]
        return Tensor(rel), args, out


def _vocab():
    samples = preprocess_samples(make_micro_dataset(6, seed=0), positions=2)
    return build_vocabularies(samples), samples


def test_collect_vectors_groups_and_averages():
    vocab, samples = _vocab()
    model = _ScriptedModel(vocab, [("add", [1.0, 0.0]), ("add", [0.0, 1.0])])
    stats = collect_relation_vectors(model, samples[:1], 30)
    assert len(stats) == 1
    assert stats[0].relation == "add"
    assert stats[0].count == 2
    assert np.allclose(stats[0].mean_vector, [0.5, 0.5])


def test_collect_vectors_absent_symbols_not_reported():
    vocab, samples = _vocab()
    model = _ScriptedModel(vocab, [("mul", [2.0, 2.0])])
    stats = collect_relation_vectors(model, samples[:1], 30)
    assert [s.relation for s in stats] == ["mul"]


def test_collect_vectors_decodes_at_most_max_len_steps():
    vocab, samples = _vocab()
    model = _ScriptedModel(vocab, [("add", [1.0, 0.0])] * 5)
    stats = collect_relation_vectors(model, samples[:1], 2)
    assert [(s.relation, s.count) for s in stats] == [("add", 2)]


def test_collect_vectors_mean_of_identical_is_identity():
    vocab, samples = _vocab()
    vec = [3.0, -1.0]
    model = _ScriptedModel(vocab, [("add", vec)] * 3)
    stats = collect_relation_vectors(model, samples[:1], 30)
    assert np.array_equal(stats[0].mean_vector, vec)


def test_collect_vectors_empty_dataset():
    vocab, _ = _vocab()
    with pytest.raises(ValueError):
        collect_relation_vectors(_ScriptedModel(vocab, []), [], 30)


# ---------------------------------------------------------------------------
# PCA


def test_pca_full_dim_preserves_variance_and_distances():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 2)) @ np.array([[3.0, 1.0], [0.0, 0.5]])
    projected, ratios = pca_project(x, 2)
    assert ratios.sum() == pytest.approx(1.0, abs=1e-12)
    orig = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    proj = np.linalg.norm(projected[:, None] - projected[None, :], axis=2)
    assert np.allclose(orig, proj, atol=1e-10)


def test_pca_collinear_points_have_one_component():
    t = np.linspace(-2, 2, 9)
    x = np.stack([t, 2 * t, -t], axis=1)  # a line in 3-D
    projected, ratios = pca_project(x, 2)
    assert ratios[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(ratios[1]) <= 1e-10
    assert np.abs(projected[:, 1]).max() <= 1e-10


def test_pca_reconstruction_of_centered_data():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((15, 4))
    centered = x - x.mean(axis=0)
    projected, _ = pca_project(x, 4)
    # Distances and norms survive a full-rank orthogonal projection, so the
    # Gram matrix of the centered data is reproduced.
    assert np.allclose(projected @ projected.T, centered @ centered.T, atol=1e-10)


def test_pca_degenerate_input_warns_and_zeroes():
    x = np.ones((5, 3))
    with pytest.warns(UserWarning, match="zero-variance"):
        projected, ratios = pca_project(x, 2)
    assert np.array_equal(projected, np.zeros((5, 2)))
    assert np.array_equal(ratios, np.zeros(2))


def test_pca_rejects_bad_target():
    with pytest.raises(ValueError):
        pca_project(np.zeros((3, 2)), 3)


def test_pca_deterministic():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 3))
    p1, r1 = pca_project(x, 2)
    p2, r2 = pca_project(x, 2)
    assert np.array_equal(p1, p2) and np.array_equal(r1, r2)


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_k1_centroid_is_mean():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    labels, centroids, inertia = kmeans(x, 1, seed=0)
    assert np.allclose(centroids[0], x.mean(axis=0), atol=1e-12)
    assert set(labels) == {0}


def test_kmeans_separated_blobs_perfect_partition():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((25, 2)) + [0.0, 0.0]
    b = rng.standard_normal((25, 2)) + [100.0, 100.0]
    x = np.vstack([a, b])
    labels, centroids, _ = kmeans(x, 2, seed=3)
    assert len(set(labels[:25])) == 1
    assert len(set(labels[25:])) == 1
    assert labels[0] != labels[-1]


def test_kmeans_inertia_non_increasing_in_iterations():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((40, 2))
    inertias = [kmeans(x, 4, seed=5, max_iter=m)[2] for m in (1, 2, 3, 5, 10, 50)]
    assert all(b <= a + 1e-9 for a, b in zip(inertias, inertias[1:])), inertias


def test_kmeans_translation_invariant_partition():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((30, 2))
    labels_a, _, _ = kmeans(x, 3, seed=7)
    labels_b, _, _ = kmeans(x + 1000.0, 3, seed=7)

    def canonical(labels):
        first_seen = {}
        out = []
        for v in labels:
            out.append(first_seen.setdefault(v, len(first_seen)))
        return out

    assert canonical(labels_a) == canonical(labels_b)


def test_kmeans_rejects_k_above_n():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_deterministic_under_seed():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((25, 2))
    a = kmeans(x, 3, seed=11)
    b = kmeans(x, 3, seed=11)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# ---------------------------------------------------------------------------
# reports


def _sample_report_inputs():
    assignments = [
        AssignmentRecord("alpha", 0, kept_fillers=[(3, 0.8)], kept_roles=[(1, 0.6), (2, 0.3)]),
        AssignmentRecord("beta", 1, kept_fillers=[], kept_roles=[(4, 0.99)]),
    ]
    stats = [RelationVectorStats("add", np.array([0.0, 1.0, 0.5]), 3),
             RelationVectorStats("divide", np.array([1.0, 0.0, 0.2]), 2),
             RelationVectorStats("sqrt", np.array([0.9, 0.1, 0.1]), 1)]
    clusters = cluster_relation_vectors(stats, k=2, seed=0)
    return assignments, clusters


def test_emit_report_counts_and_headers(tmp_path):
    assignments, clusters = _sample_report_inputs()
    emit_report(assignments, clusters, tmp_path)
    lines = (tmp_path / "clusters.csv").read_text().splitlines()
    assert lines[0] == "relation,x,y,cluster"
    assert len(lines) == 1 + 3  # one row per relation symbol
    a_lines = (tmp_path / "assignments.csv").read_text().splitlines()
    assert a_lines[0] == "token,position,role,filler,score"
    assert len(a_lines) == 1 + 4  # 3 kept entries for alpha, 1 for beta
    svg = (tmp_path / "scatter.svg").read_text()
    assert svg.startswith("<svg") and "add" in svg


def test_emit_report_svgs_parse_with_markup_characters_in_names(tmp_path):
    """Relation names such as AlgoLisp's ``<`` and ``<=`` and tokens such as
    ``x<y`` are escaped: both SVGs are well-formed XML whose text shows them."""
    assignments = [AssignmentRecord("x<y", 0, kept_fillers=[(3, 0.8)], kept_roles=[(1, 0.6)]),
                   AssignmentRecord("a&b", 1, kept_fillers=[], kept_roles=[])]
    stats = [RelationVectorStats("<", np.array([0.0, 1.0, 0.5]), 3),
             RelationVectorStats("<=", np.array([1.0, 0.0, 0.2]), 2),
             RelationVectorStats("a&b", np.array([0.9, 0.1, 0.1]), 1)]
    emit_report(assignments, cluster_relation_vectors(stats, k=2, seed=0), tmp_path)
    for name, shown in (("scatter.svg", {"<", "<=", "a&b"}), ("roles.svg", {"x<y", "a&b"})):
        texts = {el.text for el in ET.parse(tmp_path / name).getroot().iter(f"{SVG}text")}
        assert shown <= texts, name
    rows = (tmp_path / "clusters.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["<", "<=", "a&b"]


def test_emit_report_empty_inputs(tmp_path):
    emit_report([], None, tmp_path)
    assert (tmp_path / "assignments.csv").read_text() == "token,position,role,filler,score\n"
    assert (tmp_path / "clusters.csv").read_text() == "relation,x,y,cluster\n"
    assert "<svg" in (tmp_path / "roles.svg").read_text()


def test_emit_report_byte_stable(tmp_path):
    assignments, clusters = _sample_report_inputs()
    emit_report(assignments, clusters, tmp_path / "one")
    emit_report(assignments, clusters, tmp_path / "two")
    for name in ("assignments.csv", "clusters.csv", "scatter.svg", "roles.svg"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
