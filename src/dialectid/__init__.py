"""Dialect and similar-language identification with recurrent classifiers.

Character-, word-, and dense-feature models built on peephole LSTM and
sigmoid-RNN cells (optionally bidirectional), trained with exact analytic
gradients, plus the confusion-matrix metric family and a CLI.
"""

from .errors import ConfigError, FormatError, NumericError, ShapeError
from .numerics import cross_entropy, make_stream, softmax
from .data import (
    Batch,
    Dataset,
    LabelSet,
    Sample,
    Vocab,
    build_vocab,
    encode,
    encode_dataset,
    frame_dense,
    load_dense,
    load_labels_order,
    load_tsv,
    make_batches,
    save_tsv,
    tokenize,
    tokenize_chars,
    tokenize_words,
)
from .model import (
    Model,
    ModelConfig,
    forward_classify,
    init_model,
    param_blocks,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .training import (
    TrainConfig,
    TrainReport,
    adam_step,
    batch_loss,
    clip_global_norm,
    evaluate_split,
    grad_check,
    loss_and_gradients,
    sgd_step,
    train,
)
from .metrics import (
    ConfusionMatrix,
    MetricReport,
    accuracy,
    compute_report,
    confusion_from_pairs,
    f1_scores,
    load_cm,
    per_class_prf,
    permuted,
    render_heatmap,
    render_text,
    save_cm,
    summary_line,
)
from .synth import BigramOracle, SynthSpec, gen_synthetic, split_dataset

__version__ = "0.1.0"
