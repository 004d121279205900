"""What each workload is for, and which metrics apply to it.

Standard library only: the parent process of ``run.py`` imports this without
loading numpy or the program. Metric names, units and bounds live in
``BENCHMARK.json``; the sentence saying why each workload exists is its
``why`` there.
"""

# The layer each workload is meant to stress, and the layers it bypasses.
STRESSES = {
    "al-hybrid": "training (autodiff.backward, optim.Adam.step) plus per-round "
                 "evaluation and hybrid acquisition",
    "transfer-shift": "transfer.freeze_plan/mmd, feature capture, fine-tuning "
                      "with frozen layers",
    "scan-score": "inference: model.predict_probs, data.extract_windows_batch, "
                  "queries.query_pool",
}
BYPASSES = {
    "al-hybrid": "transfer",
    "transfer-shift": "queries",
    "scan-score": "autodiff.backward, optim, training.train_model, transfer",
}

# End-to-end metrics as the issue names them, printed per workload. The
# result line carries the one throughput metric that applies to a workload
# as ``throughput_per_s``, and the error rate as ``failed / attempted``.
E2E_NAMES = ("wall_s", "setup_s", "train_samples_per_s", "scored_pixels_per_s",
             "oa", "peak_rss_mb", "error_rate")
THROUGHPUT = {
    "al-hybrid": "train_samples_per_s",
    "transfer-shift": "train_samples_per_s",
    "scan-score": "scored_pixels_per_s",
}

# Per-layer metric groups. A workload must give every metric of the groups
# it uses a non-zero value in a traced run, and exactly zero for every metric
# of the groups it does not use.
_LAYER_SELF = ("autodiff", "model", "training", "data", "metrics", "checkpoint")
INFERENCE = (
    "autodiff.matmul.fwd_s", "autodiff.matmul.fwd_calls",
    "autodiff.matmul.fwd_gflop", "autodiff.matmul.fwd_gflops_per_s",
    "autodiff.softmax.fwd_s", "autodiff.layer_norm.fwd_s",
    "model.forward_batch.eval_s", "model.predict_probs.s",
    "model.predict_probs.samples", "model.predict_probs.us_per_sample",
    "training.evaluate.s", "training.WindowBank.s",
    "data.extract_windows_batch.s", "data.extract_windows_batch.windows",
    "data.load_cube.s", "data.load_labels.s",
    "checkpoint.bytes", "metrics.report.s", "cli.main.self_s", "gc.pause_s",
    "trace.spans",
) + tuple(f"{layer}.self_s" for layer in _LAYER_SELF)
TRAINING = (
    "autodiff.backward.s", "autodiff.backward.calls",
    "autodiff.tape.records_per_step", "autodiff.backward_over_forward",
    "optim.Adam.step.s", "optim.Adam.step.calls", "optim.self_s",
    "model.forward_batch.train_s",
    "training.train_model.s", "training.train_model.steps",
    "training.train_model.samples", "training.train_step.n",
    "training.train_step.p50_ms", "training.train_step.p95_ms",
    "checkpoint.save_model.s",
)
ACQUISITION = (
    "queries.query_pool.s", "queries.query_pool.calls",
    "queries.neighborhood_diversity_batch.s",
    "queries.neighborhood_diversity_batch.pixels", "queries.self_s",
)
TRANSFER = (
    "transfer.freeze_plan.s", "transfer.mmd.s", "transfer.mmd.calls",
    "transfer.fine_tune.s", "transfer.frozen_layers", "transfer.self_s",
    "model.encode.capture_s",
)
CHECKPOINT_LOAD = ("checkpoint.load_model.s",)
GROUPS = (INFERENCE, TRAINING, ACQUISITION, TRANSFER, CHECKPOINT_LOAD)
USES = {
    "al-hybrid": (INFERENCE, TRAINING, ACQUISITION),
    "transfer-shift": (INFERENCE, TRAINING, TRANSFER, CHECKPOINT_LOAD),
    "scan-score": (INFERENCE, ACQUISITION, CHECKPOINT_LOAD),
}
