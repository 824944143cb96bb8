"""The three benchmark workloads, driven through the package's public functions.

Every workload is a closed loop: one caller in one process, samples back to
back, no arrival rate.  ``--seed`` chooses the problems through
``data_seed``; ``reference.json`` holds the recorded outputs of every data
seed.

- ``micro-train``: ``training.train`` with ``synthetic.micro_config()`` on
  ``make_micro_dataset(50)`` for ``MICRO_EPOCHS`` epochs, greedy eval
  included.  Tiny matrices, so Python work per tape node dominates.  The
  ``infer_*`` figures come from the per-epoch greedy eval.
- ``mathqa-train``: one epoch of ``training.train`` at the ``mathqa`` preset
  on ``MATHQA_TRAIN`` MathQA-shaped problems in batches of ``MATHQA_BATCH``,
  eval and final checkpoint write included.  BLAS- and memory-bound backward
  plus Adam over 10.9 M parameters.  After each training call the trained
  model greedy-decodes and scores the pool of problems mathqa-infer uses, as
  mathqa-infer does; those decodes give the ``infer_*`` figures.
- ``mathqa-infer``: load and build the checkpoint such a run writes, then
  greedy-decode problems one at a time and score each with
  ``evaluate_metrics``.  Forward only.  The checkpoint is written in a child
  process, which keeps training memory out of this process's peak RSS; its
  samples per second are this workload's ``train_samples_per_s``.

Runs with different seeds do the same amount of work, so their figures can
be compared:

- The MathQA-shaped problems have fixed shapes (``SHAPES``: token and tuple
  counts); the seed draws only their content.
- The mathqa vocabulary and initial weights come from ``MODEL_SEED``, and
  training uses ``MATHQA_LR``.  An untrained model emits the same program
  for every input, and whether it stops on EOS at once, midway or never
  depends on the weights: with the preset's rate, three Adam steps change
  decode time two- to three-fold from seed to seed.  With ``MODEL_SEED`` and
  ``MATHQA_LR`` every greedy decode, before and after training, runs to
  ``max_decode_len`` on all data seeds; the traced run's
  ``training.eos_stop_ratio`` shows it staying 0.  The work of a training
  step does not depend on the rate.
- The training workloads take the next data seed for each training call, so
  a run's medians mix several seeds; a micro-train run makes whole rounds
  over all of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tpn2f.data as data
import tpn2f.formal_lang as formal_lang
import tpn2f.training as training
from tpn2f.model import build_model
from tpn2f.synthetic import make_micro_dataset, micro_config
from mathqa_synth import make_mathqa_like, mathqa_shapes
from tracer import Stopwatch

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE_PATH = HERE / "reference.json"

# Reference outputs are recorded for data seeds 0..REFERENCE_SEEDS-1; any
# seed maps onto one of them.
REFERENCE_SEEDS = 16
# Timed set-ups per run, for the setup_s median: a micro set-up takes ~20 ms,
# a mathqa one ~1.3 s.
MICRO_SETUPS = 31
MATHQA_SETUPS = 5
# Greedy decodes per mathqa run, at least, so that ten lie beyond the p90.
MIN_DECODES = 100

MICRO_SAMPLES = 50
MICRO_EPOCHS = 2
# Relative tolerance on recorded mean losses: they are bit-exact while the
# arithmetic is unchanged, and a changed summation order moves them far less.
LOSS_RTOL = 1e-7

MODEL_SEED = 2           # mathqa vocabulary corpus and initial weights
MATHQA_LR = 1e-6
MATHQA_CORPUS = 200      # problems the vocabulary is built from
MATHQA_TRAIN = 6         # problems per training call: the first SHAPES
MATHQA_BATCH = 2
INFER_POOL = 64          # distinct problems decoded, cycled
INFER_CHUNK = 16         # problems per infer-throughput measurement
# Decodes after each mathqa training call: the whole pool.  With
# MIN_DECODES a run makes at least two training calls, whose median is
# steadier than one call's rate.
MATHQA_DECODES = INFER_POOL
SHAPES = mathqa_shapes(INFER_POOL, 0)


def data_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


@dataclass
class Run:
    """Raw measurements and check outcomes of one workload run."""

    setup_s: list[float] = field(default_factory=list)
    train_rates: list[float] = field(default_factory=list)    # samples/s per train call
    infer_rates: list[float] = field(default_factory=list)    # samples/s per eval or chunk
    latencies_s: list[float] = field(default_factory=list)    # per greedy_decode call
    attempted: int = 0    # operations a check covers
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """Count one correctness check; a failed one is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {message}")

    def add_eval(self, stopwatch: Stopwatch) -> None:
        """Fold the greedy evals timed during training into the infer figures.

        Nothing checks these decodes, so they are not counted as attempted.
        """
        for n, dt in zip(stopwatch.decoded, stopwatch.durations["operation_accuracy"]):
            self.infer_rates.append(n / dt)
        self.latencies_s += stopwatch.durations["greedy_decode"]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def prediction_digest(program) -> str:
    return hashlib.sha256(formal_lang.format_tuple_sequence(program).encode()).hexdigest()[:16]


def _warm_up(model, enc, max_len: int) -> None:
    """One forward+backward and one greedy decode; the grads are dropped."""
    with training.GradientTape():
        training.backward(training.sample_loss(model, enc))
    for _, p in model.parameters():
        p.grad = None
    training.greedy_decode(model, enc.token_ids, max_len)


def _train(run: Run, model, train_set, cfg, **kwargs) -> tuple[float, list[float] | None]:
    """One timed ``training.train`` call; returns (seconds, mean losses).

    The program offers no finer unit than the call, so a raise inside it fails
    every sample of the call; the losses are then None.
    """
    start = time.perf_counter()
    try:
        history = training.train(model, train_set, cfg, **kwargs)
    except Exception as exc:   # counted as failed samples, not a crash of the benchmark
        run.attempted += len(train_set) * cfg.epochs
        run.failed += len(train_set) * cfg.epochs
        run.notes.append(f"training.train raised {exc!r}")
        return time.perf_counter() - start, None
    dt = time.perf_counter() - start
    return dt, _trained(run, [s.mean_loss for s in history], len(train_set), cfg.epochs)


def _trained(run: Run, losses: list[float], n_samples: int, epochs: int) -> list[float]:
    """Check a training call's per-epoch mean losses are finite; returns them."""
    run.attempted += n_samples * epochs
    # Losses are non-negative, so a finite mean means every sample loss is finite.
    bad = len(losses) != epochs or not all(math.isfinite(x) for x in losses)
    if bad:
        run.failed += n_samples * epochs
        run.notes.append(f"non-finite or missing epoch losses: {losses}")
    return losses


def _check_losses(run: Run, losses: list[float] | None, reference: list[float]) -> None:
    if losses is None:
        return   # the training call raised; its samples are already failed
    close = len(losses) == len(reference) and all(
        math.isclose(x, r, rel_tol=LOSS_RTOL) for x, r in zip(losses, reference))
    run.check(close, f"mean losses {losses} differ from the reference {reference}")
    if close and losses != reference:
        run.notes.append("mean losses match the reference within tolerance, not bit-exactly")


# ---------------------------------------------------------------------------
# micro-train


def micro_inputs(seed: int):
    cfg = micro_config()
    cfg.seed = seed
    cfg.epochs = MICRO_EPOCHS
    cfg.stop_at_full_accuracy = False
    return cfg, make_micro_dataset(MICRO_SAMPLES, seed)


def _micro_model(cfg, raw):
    samples = data.preprocess_samples(raw, cfg.positions)
    vocab = data.build_vocabularies(samples)
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(cfg.seed))
    encoded = training.encode_samples(samples, vocab, cfg.positions)
    _warm_up(model, encoded[0], cfg.max_decode_len)
    return model, samples


def micro_losses(seed: int) -> list[float]:
    """Per-epoch mean losses of one micro-train call; recorded as the reference."""
    cfg, raw = micro_inputs(seed)
    model, samples = _micro_model(cfg, raw)
    return [s.mean_loss for s in training.train(model, samples, cfg)]


def micro_train(seed: int, seconds: float) -> Run:
    reference = load_reference()["micro_mean_loss"]
    run = Run()
    spent, calls = 0.0, 0
    # Whole rounds over the data seeds: micro decode latency is bimodal (EOS
    # stop or the length cap) and the share of each mode depends on the seed,
    # so the latency percentiles are steady only if every run has the same mix.
    while spent < seconds or calls % REFERENCE_SEEDS or len(run.setup_s) < MICRO_SETUPS:
        d = data_seed(seed + calls)
        cfg, raw = micro_inputs(d)
        start = time.perf_counter()
        model, samples = _micro_model(cfg, raw)
        run.setup_s.append(time.perf_counter() - start)
        if spent >= seconds and calls % REFERENCE_SEEDS == 0:
            continue   # an extra set-up for the setup_s median
        with Stopwatch() as sw:
            dt, losses = _train(run, model, samples, cfg)
        spent += dt
        calls += 1
        run.train_rates.append(MICRO_SAMPLES * MICRO_EPOCHS / dt)
        run.add_eval(sw)
        _check_losses(run, losses, reference[d])
    return run


# ---------------------------------------------------------------------------
# mathqa-train


def mathqa_config(seed: int) -> training.TrainConfig:
    cfg = training.mathqa_preset()
    cfg.seed = seed
    cfg.epochs = 1
    cfg.batch_size = MATHQA_BATCH
    cfg.learning_rate = MATHQA_LR
    return cfg


def mathqa_corpus() -> list:
    return make_mathqa_like(MODEL_SEED, mathqa_shapes(MATHQA_CORPUS, MODEL_SEED))


def mathqa_problems(seed: int, n: int) -> list:
    return make_mathqa_like(seed, SHAPES[:n])


def _mathqa_model(cfg, corpus, train_raw):
    """Set-up: vocabulary, seeded model, encoded training set and a warm-up pass."""
    vocab = data.build_vocabularies(data.preprocess_samples(corpus, cfg.positions))
    model = build_model(cfg.variant(), cfg.dims(), vocab, np.random.default_rng(MODEL_SEED))
    train_set = data.preprocess_samples(train_raw, cfg.positions)
    encoded = training.encode_samples(train_set, vocab, cfg.positions)
    _warm_up(model, encoded[0], cfg.max_decode_len)
    return model, train_set


def _encode_pool(model, cfg, pool_raw):
    pool = data.preprocess_samples(pool_raw, cfg.positions)
    return pool, training.encode_samples(pool, model.vocab, cfg.positions)


def decode_and_score(run: Run, model, max_len: int, pool, encoded, expected: list[str],
                     order: list[int]) -> float:
    """Greedy-decode and score the problems ``order`` names, one at a time.

    Each prediction must equal its reference digest; a decode or score that
    raises is a failed sample.  Records each decode's latency and the
    chunk's samples per second; returns the chunk's wall seconds.
    """
    chunk_start = time.perf_counter()
    for i in order:
        enc, sample = encoded[i], pool[i]
        run.attempted += 1
        start = time.perf_counter()
        try:
            pred = training.greedy_decode(model, enc.token_ids, max_len)
            run.latencies_s.append(time.perf_counter() - start)
            report = formal_lang.evaluate_metrics(
                [pred], [sample.program], envs=[sample.numbers], options=[sample.options])
        except Exception as exc:   # counted as a failed sample, not a crash of the benchmark
            run.failed += 1
            run.notes.append(f"decoding {enc.sample_id} raised {exc!r}")
            continue
        if report.n != 1 or prediction_digest(pred) != expected[i]:
            run.failed += 1
            run.notes.append(f"prediction for {enc.sample_id} differs from the reference")
    dt = time.perf_counter() - chunk_start
    run.infer_rates.append(len(order) / dt)
    return dt


def mathqa_train(seed: int, seconds: float) -> Run:
    reference = load_reference()
    run = Run()
    corpus = mathqa_corpus()
    OUT_DIR.mkdir(exist_ok=True)
    checkpoint = OUT_DIR / f"mathqa-train-{os.getpid()}.ckpt"
    spent, calls = 0.0, 0
    try:
        while spent < seconds or calls * MATHQA_DECODES < MIN_DECODES \
                or len(run.setup_s) < MATHQA_SETUPS:
            model = None   # free the previous model before building the next
            d = data_seed(seed + calls)
            cfg, train_raw = mathqa_config(d), mathqa_problems(d, MATHQA_TRAIN)
            start = time.perf_counter()
            model, train_set = _mathqa_model(cfg, corpus, train_raw)
            pool, encoded = _encode_pool(model, cfg, mathqa_problems(d, INFER_POOL))
            run.setup_s.append(time.perf_counter() - start)
            if spent >= seconds and calls * MATHQA_DECODES >= MIN_DECODES:
                continue   # an extra set-up for the setup_s median
            dt, losses = _train(run, model, train_set, cfg, checkpoint_path=checkpoint)
            spent += dt
            calls += 1
            run.train_rates.append(MATHQA_TRAIN / dt)
            _check_losses(run, losses, reference["mathqa_train_mean_loss"][d])
            run.check(checkpoint.is_file() and checkpoint.stat().st_size > 0,
                      "training.train wrote no checkpoint")
            checkpoint.unlink(missing_ok=True)
            # The trained model is the one mathqa-infer loads for this data seed.
            for k in range(0, MATHQA_DECODES, INFER_CHUNK):
                order = [(k + j) % INFER_POOL for j in range(INFER_CHUNK)]
                spent += decode_and_score(run, model, cfg.max_decode_len, pool, encoded,
                                          reference["infer_predictions"][d], order)
    finally:
        checkpoint.unlink(missing_ok=True)
    return run


# ---------------------------------------------------------------------------
# mathqa-infer


def write_infer_checkpoint(seed: int, checkpoint: Path) -> dict:
    """Train and write the checkpoint mathqa-infer serves; returns timing and losses."""
    cfg = mathqa_config(seed)
    model, train_set = _mathqa_model(cfg, mathqa_corpus(), mathqa_problems(seed, MATHQA_TRAIN))
    start = time.perf_counter()
    history = training.train(model, train_set, cfg, checkpoint_path=checkpoint)
    return {"train_s": time.perf_counter() - start, "samples": len(train_set),
            "losses": [s.mean_loss for s in history]}


def _child_checkpoint(seed: int, checkpoint: Path) -> dict:
    """Run ``write_infer_checkpoint`` in a child process and wait for it."""
    cmd = [sys.executable, str(HERE / "fixture.py"), "--seed", str(seed), "--out", str(checkpoint)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"checkpoint fixture failed ({done.returncode}): {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def infer_setup(cfg, pool_raw, checkpoint: Path):
    """Set-up: load and build the checkpoint, encode the pool, one warm-up decode."""
    model, _ = training.load_checkpoint(checkpoint).build()
    pool, encoded = _encode_pool(model, cfg, pool_raw)
    training.greedy_decode(model, encoded[0].token_ids, cfg.max_decode_len)
    return model, pool, encoded


def infer_predictions(seed: int, checkpoint: Path) -> list[str]:
    """Digests of the greedy predictions for the whole pool; recorded as the reference."""
    cfg = mathqa_config(seed)
    model, _, encoded = infer_setup(cfg, mathqa_problems(seed, INFER_POOL), checkpoint)
    return [prediction_digest(training.greedy_decode(model, enc.token_ids, cfg.max_decode_len))
            for enc in encoded]


def mathqa_infer(seed: int, seconds: float) -> Run:
    d = data_seed(seed)
    reference = load_reference()
    expected = reference["infer_predictions"][d]
    run = Run()
    cfg, pool_raw = mathqa_config(d), mathqa_problems(d, INFER_POOL)
    OUT_DIR.mkdir(exist_ok=True)
    checkpoint = OUT_DIR / f"mathqa-infer-{os.getpid()}.ckpt"
    try:
        fixture = _child_checkpoint(d, checkpoint)
        run.train_rates.append(fixture["samples"] / fixture["train_s"])
        losses = _trained(run, fixture["losses"], fixture["samples"], 1)
        _check_losses(run, losses, reference["mathqa_train_mean_loss"][d])
        for _ in range(MATHQA_SETUPS):
            model = None   # free the previous model before loading the next
            start = time.perf_counter()
            model, pool, encoded = infer_setup(cfg, pool_raw, checkpoint)
            run.setup_s.append(time.perf_counter() - start)
    finally:
        checkpoint.unlink(missing_ok=True)
    spent, k = 0.0, 0
    while spent < seconds or k < MIN_DECODES:
        order = [(k + j) % INFER_POOL for j in range(INFER_CHUNK)]
        k += INFER_CHUNK
        spent += decode_and_score(run, model, cfg.max_decode_len, pool, encoded, expected, order)
    return run


# ---------------------------------------------------------------------------
# ROADMAP baseline quantities

# The ROADMAP's "9-tuple sample" has two readings: 8 program tuples plus the
# EOS tuple, or 9 program tuples (plus EOS).  Both are measured; the
# ``_9prog`` metrics are the second reading.
ROADMAP_BASELINE = {"roadmap.micro_fwd_bwd_ms": 8.5, "roadmap.micro_greedy_ms": 2.3,
                    "roadmap.mathqa_fwd_bwd_s": 1.3, "roadmap.mathqa_tape_nodes": 2959,
                    "roadmap.mathqa_fwd_bwd_s_9prog": 1.3,
                    "roadmap.mathqa_tape_nodes_9prog": 2959}
ROADMAP_RTOL = 0.2   # timings within 20% of the ROADMAP figure count as matching


def matches_roadmap(name: str, value: float) -> bool:
    claimed = ROADMAP_BASELINE[name]
    if "tape_nodes" in name:
        return value == claimed
    return abs(value - claimed) <= ROADMAP_RTOL * claimed


def _fwd_bwd(model, enc) -> tuple[float, int]:
    """Seconds for one forward+backward of ``enc`` and the tape nodes it records."""
    start = time.perf_counter()
    with training.GradientTape() as tape:
        loss = training.sample_loss(model, enc)
        nodes = len(tape)
        training.backward(loss)
    dt = time.perf_counter() - start
    for _, p in model.parameters():
        p.grad = None
    return dt, nodes


def roadmap_baseline(seed: int) -> dict[str, tuple[float, str]]:
    """The ROADMAP's baseline figures, measured untraced.

    Micro: mean fwd+bwd and greedy-decode time over the 50 micro samples.
    MathQA preset: median of three warm fwd+bwd passes, and the tape nodes,
    for a generated problem of 40 tokens with 8 program tuples (9 with EOS)
    and for one with 9 program tuples.
    """
    d = data_seed(seed)
    cfg, raw = micro_inputs(d)
    model, samples = _micro_model(cfg, raw)
    encoded = training.encode_samples(samples, model.vocab, cfg.positions)
    fwd_bwd = [_fwd_bwd(model, enc)[0] for enc in encoded]
    start = time.perf_counter()
    for enc in encoded:
        training.greedy_decode(model, enc.token_ids, cfg.max_decode_len)
    greedy = (time.perf_counter() - start) / len(encoded)

    cfg = mathqa_config(d)
    model, _ = _mathqa_model(cfg, mathqa_corpus(), mathqa_problems(d, MATHQA_TRAIN))
    out = {"roadmap.micro_fwd_bwd_ms": (1000.0 * statistics.fmean(fwd_bwd), "ms"),
           "roadmap.micro_greedy_ms": (1000.0 * greedy, "ms")}
    for n_program, suffix in ((8, ""), (9, "_9prog")):
        shaped = data.preprocess_samples(make_mathqa_like(d, [(40, n_program)]), cfg.positions)
        enc = training.encode_samples(shaped, model.vocab, cfg.positions)[0]
        runs = [_fwd_bwd(model, enc) for _ in range(3)]
        out[f"roadmap.mathqa_fwd_bwd_s{suffix}"] = (statistics.median(dt for dt, _ in runs), "s")
        out[f"roadmap.mathqa_tape_nodes{suffix}"] = (runs[0][1], "count")
    return out


WORKLOADS = {"micro-train": micro_train, "mathqa-train": mathqa_train,
             "mathqa-infer": mathqa_infer}
