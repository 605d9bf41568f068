"""ctxrec: implicit session-context inference for next-item recommendation.

Pipeline: interaction logs are sessionized and split chronologically per
user; a session-item multigraph encoder produces inductive session
embeddings; k-means over those embeddings mints implicit context labels; a
context predictor learns to anticipate a session's context in real time; and
a next-item model conditions its recommendations on the predicted contexts.
"""

__version__ = "0.1.0"

from .config import PipelineConfig, resolve_config
from .corpus import (
    Interaction,
    Session,
    SplitCorpus,
    build_corpus,
    load_corpus,
    parse_log,
)

__all__ = [
    "Interaction",
    "PipelineConfig",
    "Session",
    "SplitCorpus",
    "build_corpus",
    "load_corpus",
    "parse_log",
    "resolve_config",
    "__version__",
]
