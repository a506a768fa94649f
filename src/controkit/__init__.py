"""controkit: a workbench for controversy detection on web pages.

Builds weakly labeled corpora by snowball-crawling a controversial-seed
list, trains neural (CNN, hierarchical attention) and lexical
(tf-idf margin, unigram language model) full-text classifiers on a small
self-contained autodiff engine, and evaluates robustness across time,
topic and domain with bootstrap significance and human-agreement
correlations.
"""

__version__ = "0.1.0"

import os

# One BLAS thread unless the caller sets a count: with more, OpenBLAS splits
# the CNN's products at the documented sizes between threads, and a fit's
# bits depend on the thread count. This must run before numpy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .errors import (  # noqa: F401, E402
    ControkitError,
    DataFormatError,
    DimensionError,
    DomainError,
    IntegrityError,
    NumericError,
    UsageError,
)
