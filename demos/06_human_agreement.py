"""Correlating model errors with human annotation behavior.

Given multi-annotator controversy scores per page, three Spearman
correlations summarize how a model's error profile relates to people:
against the mean annotation (is the model more wrong on pages people call
controversial?), against certainty (distance of the mean from the scale
midpoint), and against disagreement (the annotators' standard deviation).
A model whose errors track annotator disagreement fails where humans
themselves are unsure, which is the failure mode you want.
"""

from dataclasses import asdict

from controkit.experiments import run_agreement
from controkit.reports import render_agreement_table
from controkit.synthetic import make_annotated_predictions

# informative=True couples annotator behavior to document difficulty
preds, annotations = make_annotated_predictions(
    n_docs=120, seed=9, scale=(1, 2, 3, 4), n_annotators=5, informative=True)

rows = run_agreement([preds], annotations, scale_midpoint=2.5, min_scores=3)
rows = [(model, asdict(rep)) for model, rep in rows]
print(render_agreement_table(rows, "Synthetic annotators coupled to difficulty"))

# the null case: annotations independent of the model's errors
preds_null, annotations_null = make_annotated_predictions(
    n_docs=120, seed=10, informative=False)
preds_null.model_name = "null-model"
rows_null = run_agreement([preds_null], annotations_null, scale_midpoint=2.5)
rows_null = [(model, asdict(rep)) for model, rep in rows_null]
print(render_agreement_table(rows_null, "Independent annotators (correlations ~ 0)"))
