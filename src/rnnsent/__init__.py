"""Tweet sentiment classification with from-scratch recurrent networks.

The pipeline: preprocess raw tweets into a clean corpus and vocabulary, train
skip-gram word embeddings, train a standard or bidirectional RNN classifier
with hand-derived BPTT, evaluate it, and apply it across the corpus over time.
"""

__version__ = "0.1.0"

from .analysis import (
    ClassifiedTweet,
    SentimentDistribution,
    TemporalBuckets,
    classify_corpus,
    sentiment_distribution,
    temporal_buckets,
)
from .corpus import (
    CleanTweet,
    CorpusStats,
    PreprocessConfig,
    RawTweet,
    Vocabulary,
    preprocess_corpus,
)
from .embedding import (
    EmbeddingMatrix,
    EmbeddingParams,
    cosine_similarity,
    nearest_neighbors,
    train_embeddings,
)
from .evaluation import (
    ConfusionMatrix,
    Metrics,
    accuracy,
    confusion_matrix,
    evaluate,
    f1_scores,
    false_negative_share,
)
from .model import (
    ModelConfig,
    backward_full,
    backward_truncated,
    forward,
    init_params,
    load_model,
    predict,
    save_model,
)
from .numeric import RngState
from .training import (
    DatasetSplit,
    GridResult,
    LabeledTweet,
    TrainConfig,
    TrainReport,
    balance_classes,
    binary_subset,
    load_annotations,
    run_grid,
    split,
    train,
)

__all__ = [
    "__version__",
    "ClassifiedTweet",
    "SentimentDistribution",
    "TemporalBuckets",
    "classify_corpus",
    "sentiment_distribution",
    "temporal_buckets",
    "CleanTweet",
    "CorpusStats",
    "PreprocessConfig",
    "RawTweet",
    "Vocabulary",
    "preprocess_corpus",
    "EmbeddingMatrix",
    "EmbeddingParams",
    "cosine_similarity",
    "nearest_neighbors",
    "train_embeddings",
    "ConfusionMatrix",
    "Metrics",
    "accuracy",
    "confusion_matrix",
    "evaluate",
    "f1_scores",
    "false_negative_share",
    "ModelConfig",
    "backward_full",
    "backward_truncated",
    "forward",
    "init_params",
    "load_model",
    "predict",
    "save_model",
    "RngState",
    "DatasetSplit",
    "GridResult",
    "LabeledTweet",
    "TrainConfig",
    "TrainReport",
    "balance_classes",
    "binary_subset",
    "load_annotations",
    "run_grid",
    "split",
    "train",
]
