"""controkit: a workbench for controversy detection on web pages.

Builds weakly labeled corpora by snowball-crawling a controversial-seed
list, trains neural (CNN, hierarchical attention) and lexical
(tf-idf margin, unigram language model) full-text classifiers on a small
self-contained autodiff engine, and evaluates robustness across time,
topic and domain with bootstrap significance and human-agreement
correlations.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    ControkitError,
    DataFormatError,
    DimensionError,
    DomainError,
    IntegrityError,
    NumericError,
    UsageError,
)
