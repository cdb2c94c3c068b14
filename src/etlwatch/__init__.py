"""etlwatch: autoencoder-based anomaly detection for ETL event streams."""

__version__ = "0.1.0"

from .autoencoder import (  # noqa: F401
    Activation,
    AutoencoderParams,
    TrainConfig,
    load_model,
    save_model,
    train,
)
from .detector import calibrate_threshold, score, score_stream  # noqa: F401
from .errors import EtlwatchError  # noqa: F401
from .evaluation import DataBundle, auc, metrics_at_threshold, standard_benchmark  # noqa: F401
from .preprocess import EtlEvent, FeatureSchema, fit_stats, standardize, vectorize  # noqa: F401
from .streamgen import StreamConfig, generate  # noqa: F401
