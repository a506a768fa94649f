"""Weakly labeled dataset model: documents, label propagation, splits, files.

On-disk formats (all UTF-8 JSON-lines):

* dataset: one document per line with fields exactly ``id``, ``url``,
  ``title``, ``text``, ``label``, ``source``, ``hop``, ``topic``,
  ``snapshot_year``, ``fetched_at``.
* seeds: ``url``, ``topic``, ``polarity``.
* annotations: ``id``, ``scores``.
* link edges (sidecar written next to a crawled dataset; splitting by seed
  neighborhood needs them): ``src``, ``dst``, ``link_class``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from urllib.parse import urldefrag, urlsplit, urlunsplit

import numpy as np

from .errors import DataFormatError, IntegrityError, UsageError, require_int, require_number

CONTROVERSIAL = "controversial"
NON_CONTROVERSIAL = "non-controversial"
WIKIPEDIA = "wikipedia"
GENERAL_WEB = "general-web"

SEE_ALSO = "see-also"
REFERENCES = "references"
EXTERNAL_LINKS = "external-links"
DEFAULT_LINK_CLASSES = (SEE_ALSO, REFERENCES, EXTERNAL_LINKS)

MAX_HOPS = 2  # the deepest hop a dataset holds

DATASET_FIELDS = (
    "id", "url", "title", "text", "label", "source",
    "hop", "topic", "snapshot_year", "fetched_at",
)


def normalize_url(url: str) -> str:
    """Case-normalized scheme/host, fragment dropped."""
    url, _ = urldefrag(url.strip())
    parts = urlsplit(url)
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path,
                       parts.query, ""))


def document_id(url: str) -> str:
    """Stable id: first 16 hex chars of the sha1 of the normalized URL."""
    return hashlib.sha1(normalize_url(url).encode("utf-8")).hexdigest()[:16]


def host_of(url: str) -> str:
    return urlsplit(url).netloc.lower().split(":")[0]


def classify_source(url: str, wikipedia_hosts) -> str:
    host = host_of(url)
    for wh in wikipedia_hosts:
        if host == wh or host.endswith("." + wh):
            return WIKIPEDIA
    return GENERAL_WEB


@dataclass
class Document:
    """One web page with its weak label and crawl provenance."""

    id: str
    url: str
    title: str
    text: str
    label: str | None
    source: str
    hop: int
    topic: str | None
    snapshot_year: int
    fetched_at: str

    def to_json(self) -> dict:
        return {f: getattr(self, f) for f in DATASET_FIELDS}


@dataclass(frozen=True)
class Seed:
    url: str
    topic: str | None
    polarity: str  # CONTROVERSIAL or "random-negative"

    @property
    def controversial(self) -> bool:
        return self.polarity == CONTROVERSIAL


@dataclass(frozen=True)
class LinkEdge:
    src: str
    dst: str
    link_class: str


@dataclass
class CrawlPolicy:
    """Knobs of the snowball crawl; the reference configuration stops at
    two hops and follows the three wiki link sections.

    A policy no crawl can honour is refused with ``UsageError``: ``max_hops``
    outside 0..``MAX_HOPS``, a negative ``retry_count``, a negative or
    non-finite ``per_host_delay``, a ``fetch_timeout`` that is not a finite
    number > 0, a ``max_pages`` below 1, a link class outside
    ``DEFAULT_LINK_CLASSES``, an ``obey_robots`` that is not a bool, or
    ``wikipedia_hosts`` that are not a list of non-empty host names.
    """

    max_hops: int = MAX_HOPS
    link_classes: tuple = DEFAULT_LINK_CLASSES
    per_host_delay: float = 1.0
    max_pages: int | None = None
    fetch_timeout: float = 10.0
    retry_count: int = 2
    obey_robots: bool = True
    wikipedia_hosts: tuple = ("wikipedia.org",)

    def __post_init__(self):
        hops = self.max_hops
        if type(hops) is not int or not 0 <= hops <= MAX_HOPS:
            raise UsageError(f"crawl policy max_hops must be an integer from 0 to {MAX_HOPS}, "
                             f"got {hops!r}")
        require_int("crawl policy retry_count", self.retry_count, 0)
        require_number("crawl policy per_host_delay", self.per_host_delay)
        require_number("crawl policy fetch_timeout", self.fetch_timeout, positive=True)
        if self.max_pages is not None:
            require_int("crawl policy max_pages", self.max_pages, 1)
        classes = self.link_classes
        if not isinstance(classes, (list, tuple)) or not all(
                c in DEFAULT_LINK_CLASSES for c in classes):
            raise UsageError(f"crawl policy link_classes must list link classes "
                             f"({'|'.join(DEFAULT_LINK_CLASSES)}), got {classes!r}")
        self.link_classes = tuple(classes)
        if type(self.obey_robots) is not bool:
            raise UsageError(f"crawl policy obey_robots must be true or false, "
                             f"got {self.obey_robots!r}")
        hosts = self.wikipedia_hosts
        if not isinstance(hosts, (list, tuple)) or not all(
                isinstance(h, str) and h for h in hosts):
            raise UsageError(f"crawl policy wikipedia_hosts must list host names, got {hosts!r}")
        self.wikipedia_hosts = tuple(hosts)

    @classmethod
    def from_json(cls, data: dict) -> "CrawlPolicy":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown crawl policy keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class AnnotationRecord:
    id: str
    scores: list[float]


@dataclass
class SplitStats:
    seeds: int
    total: int
    controversial: int
    general_web: int


@dataclass
class DatasetSplit:
    name: str
    doc_ids: list[str]
    stats: SplitStats


def compute_stats(docs) -> SplitStats:
    return SplitStats(
        seeds=sum(1 for d in docs if d.hop == 0),
        total=len(docs),
        controversial=sum(1 for d in docs if d.label == CONTROVERSIAL),
        general_web=sum(1 for d in docs if d.source == GENERAL_WEB),
    )


# ---------------------------------------------------------------------------
# Label propagation and seed assignment
# ---------------------------------------------------------------------------

def _bfs_assignment(doc_urls: set[str], edges, sources: list[str]):
    """Multi-source BFS over fetched pages.

    Returns {url: rank of its nearest source}; the FIFO frontier seeded in
    source order makes ties resolve to the earliest-listed source.
    """
    adjacency: dict[str, list[str]] = {}
    for e in edges:
        src, dst = normalize_url(e.src), normalize_url(e.dst)
        if src in doc_urls and dst in doc_urls:
            adjacency.setdefault(src, []).append(dst)
    result: dict[str, int] = {}
    queue = deque()
    for rank, url in enumerate(sources):
        url = normalize_url(url)
        if url in doc_urls and url not in result:
            result[url] = rank
            queue.append(url)
    while queue:
        url = queue.popleft()
        for nxt in adjacency.get(url, ()):
            if nxt not in result:
                result[nxt] = result[url]
                queue.append(nxt)
    return result


def assign_seeds(documents, edges, seeds) -> dict[str, str]:
    """Nearest seed (by hop distance, ties by seed order) per document id."""
    urls = {normalize_url(d.url) for d in documents}
    reach = _bfs_assignment(urls, edges, [s.url for s in seeds])
    assignment = {}
    for doc in documents:
        url = normalize_url(doc.url)
        if url not in reach:
            raise IntegrityError(f"document {doc.url} unreachable from any seed")
        assignment[doc.id] = normalize_url(seeds[reach[url]].url)
    return assignment


def propagate_labels(documents, edges, seeds):
    """Assign weak labels across recorded link edges.

    Any page reachable from a controversial seed is controversial
    (positive wins over negative reachability) and inherits the topic of
    its nearest controversial seed; pages reached only from random
    negatives are non-controversial with no topic. Unreachable pages raise
    :class:`IntegrityError` (a crawler bug, not bad input).
    """
    urls = {normalize_url(d.url) for d in documents}
    controversial_seeds = [s for s in seeds if s.controversial]
    pos_reach = _bfs_assignment(urls, edges, [s.url for s in controversial_seeds])
    all_reach = _bfs_assignment(urls, edges, [s.url for s in seeds])
    for doc in documents:
        url = normalize_url(doc.url)
        if url not in all_reach:
            raise IntegrityError(f"document {doc.url} unreachable from any seed")
        if url in pos_reach:
            doc.label = CONTROVERSIAL
            doc.topic = controversial_seeds[pos_reach[url]].topic
        else:
            doc.label = NON_CONTROVERSIAL
            doc.topic = None
    return documents


def split_dataset(documents, seed_counts: dict[str, int], rng_seed: int,
                  edges, seeds) -> dict[str, DatasetSplit]:
    """Partition by seed neighborhood so no page leaks across splits.

    Seeds are shuffled with the given seed and dealt to the named
    partitions by count; every document joins the split of its nearest
    seed. Documents of unallocated seeds (when counts do not use every
    seed) belong to no split. A count that is not an integer >= 0 is
    refused with ``UsageError``.
    """
    for name, count in seed_counts.items():
        require_int(f"{name} seed count", count, 0)
    seed_urls = []
    seen = set()
    for s in seeds:
        u = normalize_url(s.url)
        if u not in seen:
            seen.add(u)
            seed_urls.append(u)
    total_requested = sum(seed_counts.values())
    if total_requested > len(seed_urls):
        raise UsageError(
            f"requested {total_requested} seeds across splits, only {len(seed_urls)} available"
        )
    rng = np.random.default_rng(rng_seed)
    order = [seed_urls[i] for i in rng.permutation(len(seed_urls))]
    seed_to_split: dict[str, str] = {}
    cursor = 0
    for name, count in seed_counts.items():
        for u in order[cursor : cursor + count]:
            seed_to_split[u] = name
        cursor += count

    assignment = assign_seeds(documents, edges, seeds)
    members: dict[str, list] = {name: [] for name in seed_counts}
    placed: dict[str, str] = {}
    for doc in documents:
        split = seed_to_split.get(assignment[doc.id])
        if split is None:
            continue
        if doc.id in placed:
            raise IntegrityError(f"document {doc.id} assigned to two splits")
        placed[doc.id] = split
        members[split].append(doc)
    return {
        name: DatasetSplit(name=name, doc_ids=[d.id for d in docs], stats=compute_stats(docs))
        for name, docs in members.items()
    }


# ---------------------------------------------------------------------------
# JSON-lines persistence
# ---------------------------------------------------------------------------

def _load_lines(path):
    with open(path, "r", encoding="utf-8") as f:
        for number, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                yield number, json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"malformed JSON: {exc.msg}", line=number) from exc


def write_documents(path, documents) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for doc in documents:
            if doc.label not in (CONTROVERSIAL, NON_CONTROVERSIAL):
                raise UsageError(f"document {doc.id} has no label; propagate labels first")
            f.write(json.dumps(doc.to_json(), ensure_ascii=False) + "\n")


def read_documents(path) -> list[Document]:
    docs = []
    for number, record in _load_lines(path):
        missing = [f for f in DATASET_FIELDS if f not in record]
        if missing:
            raise DataFormatError(f"missing field {missing[0]!r}", line=number)
        unknown = set(record) - set(DATASET_FIELDS)
        if unknown:
            raise DataFormatError(
                f"unknown field {sorted(unknown)[0]!r}; dataset schema mismatch", line=number
            )
        if record["label"] not in (CONTROVERSIAL, NON_CONTROVERSIAL):
            raise DataFormatError(f"bad label {record['label']!r}", line=number)
        if record["source"] not in (WIKIPEDIA, GENERAL_WEB):
            raise DataFormatError(f"bad source {record['source']!r}", line=number)
        if not isinstance(record["hop"], int) or not 0 <= record["hop"] <= MAX_HOPS:
            raise DataFormatError(f"bad hop {record['hop']!r}", line=number)
        if not isinstance(record["snapshot_year"], int):
            raise DataFormatError(f"bad snapshot_year {record['snapshot_year']!r}", line=number)
        docs.append(Document(**record))
    return docs


def write_seeds(path, seeds) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in seeds:
            f.write(json.dumps({"url": s.url, "topic": s.topic, "polarity": s.polarity},
                               ensure_ascii=False) + "\n")


def read_seeds(path) -> list[Seed]:
    seeds = []
    for number, record in _load_lines(path):
        for fname in ("url", "topic", "polarity"):
            if fname not in record:
                raise DataFormatError(f"missing field {fname!r}", line=number)
        if record["polarity"] not in (CONTROVERSIAL, "random-negative"):
            raise DataFormatError(f"bad polarity {record['polarity']!r}", line=number)
        seeds.append(Seed(url=record["url"], topic=record["topic"], polarity=record["polarity"]))
    return seeds


def write_edges(path, edges) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for e in edges:
            f.write(json.dumps({"src": e.src, "dst": e.dst, "link_class": e.link_class}) + "\n")


def read_edges(path) -> list[LinkEdge]:
    edges = []
    for number, record in _load_lines(path):
        for fname in ("src", "dst", "link_class"):
            if fname not in record:
                raise DataFormatError(f"missing field {fname!r}", line=number)
        edges.append(LinkEdge(src=record["src"], dst=record["dst"],
                              link_class=record["link_class"]))
    return edges


def read_annotations(path) -> list[AnnotationRecord]:
    records = []
    for number, record in _load_lines(path):
        if "id" not in record or "scores" not in record:
            raise DataFormatError("annotation records need 'id' and 'scores'", line=number)
        scores = record["scores"]
        if not isinstance(scores, list) or not scores:
            raise DataFormatError("'scores' must be a non-empty array", line=number)
        records.append(AnnotationRecord(id=record["id"], scores=[float(s) for s in scores]))
    return records


def write_annotations(path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps({"id": r.id, "scores": r.scores}) + "\n")
