"""The boilerplate-shift corpus of the domain experiment tests and goldens:
general-web copies of wikipedia-style pages with injected navigation
chrome whose tokens lean negative in training."""

import numpy as np

from controkit.corpus import CONTROVERSIAL, GENERAL_WEB, NON_CONTROVERSIAL, WIKIPEDIA
from controkit.synthetic import _TOPICS, _compose, _make_doc, _word_pool, split_simple


def make_boilerplate_corpus(n_docs: int = 600, seed: int = 0, n_class_words: int = 40,
                            n_boilerplate_words: int = 30, n_sentences: int = 4,
                            words_per_sentence: int = 8):
    """Wikipedia-style training docs plus general-web test docs that are the
    same content wrapped in heavy navigation boilerplate.

    Boilerplate tokens appear in training mostly inside negatives (random
    pages carry more chrome relative to content), so bag-of-token models
    read boilerplate as negative evidence; every general-web page then
    drowns its content in it, while max-pooled or attention features can
    still lock onto the content words. Returns split dict with wikipedia
    train/validation and a general-web test split.
    """
    rng = np.random.default_rng(seed)
    pos_words = _word_pool("contro", n_class_words)
    neg_words = _word_pool("mundane", n_class_words)
    chrome = _word_pool("navbar", n_boilerplate_words)

    docs = []
    for i in range(n_docs):
        positive = i % 2 == 0
        words = pos_words if positive else neg_words
        noise_rate = 0.08 if positive else 0.5
        sentences = _compose(rng, words, chrome, n_sentences, words_per_sentence, noise_rate)
        docs.append(_make_doc(
            doc_id=f"wik{i:05d}", sentences=sentences,
            label=CONTROVERSIAL if positive else NON_CONTROVERSIAL,
            source=WIKIPEDIA,
            topic=_TOPICS[i % len(_TOPICS)] if positive else None,
            year=2018,
        ))
    splits = split_simple(docs, seed=seed + 1)

    web_docs = []
    for i in range(n_docs // 3):
        positive = i % 2 == 0
        words = pos_words if positive else neg_words
        content = _compose(rng, words, chrome, n_sentences, words_per_sentence,
                           noise_rate=0.1)
        chrome_sentences = _compose(rng, chrome, [], 3, words_per_sentence, 0.0)
        sentences = chrome_sentences[:2] + content + chrome_sentences[2:]
        web_docs.append(_make_doc(
            doc_id=f"web{i:05d}", sentences=sentences,
            label=CONTROVERSIAL if positive else NON_CONTROVERSIAL,
            source=GENERAL_WEB,
            topic=_TOPICS[i % len(_TOPICS)] if positive else None,
            year=2018,
        ))
    splits["test"] = web_docs
    return splits
