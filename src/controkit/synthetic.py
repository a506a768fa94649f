"""Synthetic corpora with known structure, for testing and demonstrations.

Two families:

* separable: two disjoint content vocabularies plus shared noise, so a
  bag-of-words rule scores perfectly and any working classifier should
  approach it;
* vocabulary drift: a second snapshot whose positive content words are
  replaced by synonyms that exist only in the embedding table, starving
  exact-lexical features while embedding-based features survive.
"""

from __future__ import annotations

import numpy as np

from .corpus import CONTROVERSIAL, NON_CONTROVERSIAL, WIKIPEDIA, Document

_TOPICS = ("politics", "religion", "science", "history", "media",
           "economy", "sports", "art", "health", "law", "energy", "food")


def _word_pool(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def _make_doc(doc_id: str, sentences: list[list[str]], label: str, source: str,
              topic, year: int, hop: int = 1) -> Document:
    text = " ".join(" ".join(s) + "." for s in sentences)
    return Document(
        id=doc_id,
        url=f"http://wiki.test/{doc_id}",
        title=doc_id,
        text=text,
        label=label,
        source=source,
        hop=hop,
        topic=topic,
        snapshot_year=year,
        fetched_at="2000-01-01T00:00:00+00:00",
    )


def _compose(rng, content_words, noise_words, n_sentences, words_per_sentence,
             noise_rate) -> list[list[str]]:
    sentences = []
    for _ in range(n_sentences):
        sentence = []
        for _ in range(words_per_sentence):
            if noise_words and rng.random() < noise_rate:
                sentence.append(noise_words[int(rng.integers(len(noise_words)))])
            else:
                sentence.append(content_words[int(rng.integers(len(content_words)))])
        sentences.append(sentence)
    return sentences


def make_separable_corpus(n_docs: int = 2000, seed: int = 0, n_class_words: int = 50,
                          n_noise_words: int = 40, n_sentences: int = 4,
                          words_per_sentence: int = 8, noise_rate: float = 0.3,
                          year: int = 2018) -> list[Document]:
    """Two disjoint 50-word class vocabularies plus shared noise words.

    Counting which class vocabulary dominates a document classifies it
    perfectly, which is the oracle the learnability tests lean on.
    """
    rng = np.random.default_rng(seed)
    pos_words = _word_pool("contro", n_class_words)
    neg_words = _word_pool("mundane", n_class_words)
    noise = _word_pool("noise", n_noise_words)
    docs = []
    for i in range(n_docs):
        positive = i % 2 == 0
        words = pos_words if positive else neg_words
        sentences = _compose(rng, words, noise, n_sentences, words_per_sentence, noise_rate)
        docs.append(_make_doc(
            doc_id=f"sep{i:05d}",
            sentences=sentences,
            label=CONTROVERSIAL if positive else NON_CONTROVERSIAL,
            source=WIKIPEDIA,
            topic=_TOPICS[i % len(_TOPICS)] if positive else None,
            year=year,
        ))
    return docs


def split_simple(docs, fractions=(0.7, 0.15, 0.15), seed: int = 0) -> dict:
    """Seeded train/validation/test partition of a synthetic corpus."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(docs))
    n_train = int(len(docs) * fractions[0])
    n_val = int(len(docs) * fractions[1])
    return {
        "train": [docs[i] for i in order[:n_train]],
        "validation": [docs[i] for i in order[n_train : n_train + n_val]],
        "test": [docs[i] for i in order[n_train + n_val :]],
    }


def make_drift_corpus(n_docs_per_year: int = 600, seed: int = 0,
                      n_class_words: int = 50, n_noise_words: int = 30,
                      embed_dim: int = 32, n_sentences: int = 4,
                      words_per_sentence: int = 8):
    """Two snapshots with drifted positive vocabulary plus a synonym-aware
    embedding table file content.

    Old-year positives use one content pool, new-year positives use
    synonym words absent from the old year; each synonym's vector sits
    next to its counterpart. Negatives keep a stable vocabulary across
    years. Noise words appear in both classes but lean negative, so a
    lexical model trained on the old year scores drifted positives
    negative. Returns (old_docs, new_docs, (words, vectors)).
    """
    rng = np.random.default_rng(seed)
    pos_old = _word_pool("issueold", n_class_words)
    pos_new = _word_pool("issuenew", n_class_words)
    neg_words = _word_pool("mundane", n_class_words)
    noise = _word_pool("chrome", n_noise_words)

    def year_docs(pos_words, year, tag):
        docs = []
        for i in range(n_docs_per_year):
            positive = i % 2 == 0
            if positive:
                sentences = _compose(rng, pos_words, noise, n_sentences,
                                     words_per_sentence, noise_rate=0.15)
            else:
                sentences = _compose(rng, neg_words, noise, n_sentences,
                                     words_per_sentence, noise_rate=0.45)
            docs.append(_make_doc(
                doc_id=f"{tag}{i:05d}",
                sentences=sentences,
                label=CONTROVERSIAL if positive else NON_CONTROVERSIAL,
                source=WIKIPEDIA,
                topic=_TOPICS[i % len(_TOPICS)] if positive else None,
                year=year,
            ))
        return docs

    old_docs = year_docs(pos_old, 2009, "old")
    new_docs = year_docs(pos_new, 2018, "new")

    words: list[str] = []
    vectors: list[np.ndarray] = []
    for base, synonym in zip(pos_old, pos_new):
        vec = rng.normal(0.0, 0.5, size=embed_dim).astype(np.float32)
        words.append(base)
        vectors.append(vec)
        words.append(synonym)
        vectors.append(vec + rng.normal(0.0, 0.01, size=embed_dim).astype(np.float32))
    for w in neg_words + noise:
        words.append(w)
        vectors.append(rng.normal(0.0, 0.5, size=embed_dim).astype(np.float32))
    return old_docs, new_docs, (words, np.stack(vectors))


def make_annotated_predictions(n_docs: int = 60, seed: int = 0, scale=(1, 2, 3, 4),
                               n_annotators: int = 5, informative: bool = True):
    """Synthetic (PredictionSet, AnnotationRecord list) pairs for the
    agreement pipeline.

    With ``informative=True`` annotator behavior correlates with the
    model's difficulty; otherwise annotations are independent of model
    errors and all correlations should hover near zero.
    """
    from .corpus import AnnotationRecord
    from .metrics import PredictionSet

    rng = np.random.default_rng(seed)
    ids = [f"ann{i:04d}" for i in range(n_docs)]
    true = rng.integers(0, 2, size=n_docs)
    difficulty = rng.random(n_docs)
    scores = np.clip(np.abs(true - difficulty * rng.random(n_docs)), 0.0, 1.0)
    preds = PredictionSet(
        doc_ids=ids,
        scores=scores,
        hard_labels=(scores >= 0.5).astype(int),
        true_labels=true,
        model_name="synthetic",
    )
    lo, hi = min(scale), max(scale)
    records = []
    for i in range(n_docs):
        if informative:
            center = lo + (hi - lo) * (0.5 + (difficulty[i] - 0.5) * 0.8)
            spread = 0.3 + 1.5 * difficulty[i]
        else:
            center = lo + (hi - lo) * rng.random()
            spread = 0.3 + rng.random()
        raw = rng.normal(center, spread, size=n_annotators)
        clipped = np.clip(np.round(raw), lo, hi)
        records.append(AnnotationRecord(id=ids[i], scores=[float(v) for v in clipped]))
    return preds, records
