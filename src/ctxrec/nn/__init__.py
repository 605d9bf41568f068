"""Minimal deterministic numerical engine: autodiff, layers, Adam, checks."""

from .engine import (
    Parameter,
    Var,
    backward,
    constant,
    softmax,
    softmax_cross_entropy,
)
from .layers import BiLstm, DenseLayer, EmbeddingTable
from .optim import Adam, clip_global_norm
from .gradcheck import GradCheckReport, finite_diff_check
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint

__all__ = [
    "Adam",
    "BiLstm",
    "Checkpoint",
    "DenseLayer",
    "EmbeddingTable",
    "GradCheckReport",
    "Parameter",
    "Var",
    "backward",
    "clip_global_norm",
    "constant",
    "finite_diff_check",
    "load_checkpoint",
    "save_checkpoint",
    "softmax",
    "softmax_cross_entropy",
]
