"""The four full-text classifiers behind one train/predict interface."""

from .base import (  # noqa: F401
    MODEL_KINDS,
    Classifier,
    EmptyDocumentError,
    calibrate_threshold,
    load_classifier,
    predict,
    save_classifier,
)
from .cnn import CnnParams  # noqa: F401
from .han import HanParams, han_forward  # noqa: F401
from .lm import LmModel, lm_train  # noqa: F401
from .tfidf import TfIdfModel, tfidf_train  # noqa: F401
from .training import TrainConfig, TrainResult, fit  # noqa: F401
