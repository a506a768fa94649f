"""Seeded benchmark inputs: a separable corpus, a reference-scale word table
and a fixture wiki.

Every generator is a pure function of its seed and size arguments, so one
seed gives byte-identical inputs in every process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from controkit.corpus import (
    CONTROVERSIAL,
    NON_CONTROVERSIAL,
    WIKIPEDIA,
    Document,
    Seed,
    normalize_url,
)
from controkit.embeddings import EmbeddingTable
from controkit.fixture_wiki import FixturePage, FixtureWiki
from controkit.textprep import Vocabulary

_TOPICS = ("politics", "religion", "science", "history", "media", "economy")


@dataclass(frozen=True)
class CorpusSize:
    train: int
    validation: int
    test: int
    class_words: int = 12
    noise_words: int = 188
    max_sentences: int = 8
    min_words: int = 3
    max_words: int = 14
    noise_rate: float = 0.25


# Seeds the document shapes of ``separable_corpus``, which stay fixed.
SHAPE_SEED = 0


def shuffled_cycle(rng, low: int, high: int, n: int) -> list[int]:
    """n values cycling through low..high, in seeded order: the seed changes
    which item gets which value, never the multiset, so the total work is
    the same for every seed."""
    values = [low + i % (high - low + 1) for i in range(n)]
    return [values[int(i)] for i in rng.permutation(n)]


def separable_corpus(seed: int, size: CorpusSize) -> dict:
    """Train/validation/test documents from two disjoint class vocabularies
    of 12 words each, plus 188 shared noise words at a 25% rate. Small class
    vocabularies let the five Adam steps of a fit learn the task: a corpus
    under 64 documents gets one batch per epoch.

    Sentence counts and sentence lengths vary per document, so the HAN
    takes its masked path and most of the CNN's 400 token rows are padding,
    as on real pages. Each split's set of document shapes (sentence count
    and sentence lengths) is the same for every seed; the seed picks which
    document gets which shape, and the words. So per-document work and the
    largest document, which sets peak memory, do not change with the seed.
    Labels alternate, so every split holds both classes.
    """
    rng = np.random.default_rng(seed)
    shape_rng = np.random.default_rng(SHAPE_SEED)
    pos = [f"contro{i}" for i in range(size.class_words)]
    neg = [f"mundane{i}" for i in range(size.class_words)]
    noise = [f"noise{i}" for i in range(size.noise_words)]
    splits = {}
    counter = 0
    for name, n_docs in (("train", size.train), ("validation", size.validation),
                         ("test", size.test)):
        docs = []
        n_sentences = shuffled_cycle(shape_rng, 1, size.max_sentences, n_docs)
        lengths = iter(shuffled_cycle(shape_rng, size.min_words, size.max_words,
                                      sum(n_sentences)))
        shapes = [[next(lengths) for _ in range(n)] for n in n_sentences]
        shapes = [shapes[int(j)] for j in rng.permutation(n_docs)]
        for i in range(n_docs):
            positive = i % 2 == 0
            words = pos if positive else neg
            sentences = []
            for length in shapes[i]:
                picks = [noise[int(rng.integers(len(noise)))] if rng.random() < size.noise_rate
                         else words[int(rng.integers(len(words)))] for _ in range(length)]
                sentences.append(" ".join(picks) + ".")
            doc_id = f"doc{counter:05d}"
            counter += 1
            docs.append(Document(
                id=doc_id, url=f"http://wiki.test/{doc_id}", title=doc_id,
                text=" ".join(sentences),
                label=CONTROVERSIAL if positive else NON_CONTROVERSIAL,
                source=WIKIPEDIA, hop=1,
                topic=_TOPICS[i % len(_TOPICS)] if positive else None,
                snapshot_year=2018, fetched_at="2018-01-01T00:00:00+00:00",
            ))
        splits[name] = docs
    return splits


def reference_table(seed: int, corpus: dict, n_words: int, dim: int) -> EmbeddingTable:
    """A trainable n_words x dim table covering every corpus word, padded
    with filler words to the documented default vocabulary size."""
    seen = dict.fromkeys(tok for docs in corpus.values() for d in docs
                         for tok in d.text.replace(".", " ").split())
    words = sorted(seen)
    words += [f"filler{i}" for i in range(n_words - 2 - len(words))]
    vocab = Vocabulary.from_tokens(words, {w: 2 for w in words})
    return EmbeddingTable.random(vocab, dim, np.random.default_rng(seed), trainable=True)


@dataclass(frozen=True)
class WikiSize:
    seeds: int = 12
    hop1: int = 48
    hop2: int = 192
    hop3: int = 48
    externals: int = 24
    random_pool: int = 24
    negatives: int = 6
    max_paragraphs: int = 24


ROBOTS_PREFIX = "/private/"

_FILLER = ("debate dispute argument policy history culture science evidence society "
           "report study group public record question position claim source").split()


@dataclass
class WikiFixture:
    wiki: FixtureWiki
    seeds: list
    dead: set        # linked URLs that answer 404
    disallowed: set  # linked URLs under the robots-disallowed prefix
    max_hops: int = 2


def fixture_wiki(seed: int, size: WikiSize) -> WikiFixture:
    """A layered wiki crawled two hops deep from controversial seeds.

    Every page of layers 0-2 is linked from the layer above, so the crawled
    set has the same size for every seed; which pages share in-links, page
    lengths and which links are dead change with the seed. Layer 3 lies
    past the hop limit. External hosts are general-web leaves. Every wiki
    page carries one or two dead links and some carry a link under the path that
    robots.txt disallows. The random pool backs ``Special:Random`` and
    links into its own small neighbourhood.
    """
    rng = np.random.default_rng(seed)
    wiki = FixtureWiki()
    wiki.robots["wiki.test"] = f"User-agent: *\nDisallow: {ROBOTS_PREFIX}\n"
    dead: set = set()
    disallowed: set = set()

    def url(name):
        return f"http://wiki.test/{name}"

    layers = [
        [url(f"seed{i}") for i in range(size.seeds)],
        [url(f"hop1_{i}") for i in range(size.hop1)],
        [url(f"hop2_{i}") for i in range(size.hop2)],
        [url(f"hop3_{i}") for i in range(size.hop3)],
    ]
    externals = [f"http://ext{i}.example/article" for i in range(size.externals)]
    sections = ("see_also", "references", "external_links")

    n_pages = sum(map(len, layers)) + len(externals) + 2 * size.random_pool
    paragraph_counts = iter(shuffled_cycle(rng, 1, size.max_paragraphs, n_pages))

    def new_page(page_url):
        name = page_url.rsplit("/", 1)[-1]
        n_par = next(paragraph_counts)
        paragraphs = [" ".join([name] + [_FILLER[int(rng.integers(len(_FILLER)))]
                                         for _ in range(int(rng.integers(8, 40)))]) + "."
                      for _ in range(n_par)]
        return FixturePage(url=page_url, title=name, paragraphs=paragraphs)

    pages = {u: new_page(u) for layer in layers for u in layer}
    for u in externals:
        pages[u] = new_page(u)

    def link(src, dst):
        getattr(pages[src], sections[int(rng.integers(len(sections)))]).append(dst)

    for level in range(len(layers) - 1):
        above, below = layers[level], layers[level + 1]
        for i, dst in enumerate(below):
            link(above[i % len(above)], dst)
        for src in above:
            # shared in-links: extra edges into the next layer
            for j in rng.choice(len(below), size=2, replace=False):
                link(src, below[int(j)])
            if rng.random() < 0.25:
                pages[src].body_links.append(below[int(rng.integers(len(below)))])
    for i, ext in enumerate(externals):
        src = layers[1 + i % 2][int(rng.integers(len(layers[1 + i % 2])))]
        pages[src].external_links.append(ext)

    for level, layer in enumerate(layers[:3]):
        n_dead = shuffled_cycle(rng, 1, 2, len(layer))
        blocks = shuffled_cycle(rng, 0, 4, len(layer))
        for k, src in enumerate(layer):
            for d in range(n_dead[k]):
                gone = url(f"missing_{level}_{k}_{d}")
                pages[src].references.append(gone)
                dead.add(normalize_url(gone))
            if blocks[k] == 0:
                blocked = url(f"private/{level}_{k}")
                pages[src].see_also.append(blocked)
                disallowed.add(normalize_url(blocked))

    pool = [url(f"random{i}") for i in range(size.random_pool)]
    for i, u in enumerate(pool):
        pages[u] = new_page(u)
        leaf = url(f"random{i}_leaf")
        pages[leaf] = new_page(leaf)
        pages[u].see_also.append(leaf)
        if i % 3 == 0:
            pages[u].references.append(layers[1][int(rng.integers(len(layers[1])))])
    for page in pages.values():
        wiki.add(page)
    wiki.random_pool = [pool[int(i)] for i in rng.permutation(len(pool))]
    seeds = [Seed(url=u, topic=_TOPICS[i % len(_TOPICS)], polarity=CONTROVERSIAL)
             for i, u in enumerate(layers[0])]
    return WikiFixture(wiki=wiki, seeds=seeds, dead=dead, disallowed=disallowed)


def wiki_json(wiki: FixtureWiki) -> dict:
    """The ``--fixture-server`` JSON spec of a fixture wiki."""
    return {
        "pages": [
            {"url": p.url, "title": p.title, "paragraphs": p.paragraphs,
             "see_also": p.see_also, "references": p.references,
             "external_links": p.external_links, "body_links": p.body_links}
            for p in wiki.pages.values()
        ],
        "random_pool": wiki.random_pool,
        "robots": wiki.robots,
        "random_endpoint": wiki.random_endpoint,
    }


def expected_crawl(fixture: WikiFixture, negative_urls) -> tuple[set, set]:
    """Hop-limited BFS over ``qualifying_edges()`` from the seeds and the
    drawn negatives.

    Returns (stored, failed): the URLs a correct crawl stores, and the dead
    or disallowed URLs it reaches within the hop limit, each of which must
    land in the failure list. Those are never stored or expanded.
    """
    adjacency: dict = {}
    for src, dst, _ in fixture.wiki.qualifying_edges():
        adjacency.setdefault(src, []).append(dst)
    blocked = fixture.dead | fixture.disallowed
    frontier = {normalize_url(s.url) for s in fixture.seeds}
    frontier |= {normalize_url(u) for u in negative_urls}
    reached = set(frontier)
    for _ in range(fixture.max_hops):
        nxt = set()
        for u in frontier - blocked:
            nxt.update(v for v in adjacency.get(u, ()) if v not in reached)
        reached |= nxt
        frontier = nxt
    return reached - blocked, reached & blocked
