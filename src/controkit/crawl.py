"""Polite breadth-first snowball crawler with section-classified links.

Pages are parsed with a small HTML state machine: visible text is the
content of paragraphs and headings (script/style/nav stripped), and links
are classified by the most recent section heading ("See also",
"References", "External links"); links outside those sections carry no
class and are ignored by the crawl.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from html.parser import HTMLParser
from urllib.parse import urljoin, urlsplit
from urllib import robotparser

import requests

from .corpus import (
    CrawlFailure,
    CrawlPolicy,
    Document,
    LinkEdge,
    Seed,
    classify_source,
    document_id,
    host_of,
    normalize_url,
)
from .errors import ControkitError, UsageError

logger = logging.getLogger(__name__)

USER_AGENT = "controkit/0.1 (research crawler)"  # sent, and matched against robots.txt

_HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
_SKIP_TAGS = {"script", "style", "nav", "header", "footer"}
_SECTION_NAMES = {
    "see also": "see-also",
    "references": "references",
    "external links": "external-links",
}


class FetchFailure(ControkitError):
    """A page could not be fetched; the crawl records ``(url, reason)`` and
    moves on. ``reason`` names the cause without the URL: ``HTTP 404``,
    ``disallowed by robots.txt`` or a network error's class name."""

    def __init__(self, url: str, reason: str):
        super().__init__(f"failed to fetch {url}: {reason}")
        self.url = url
        self.reason = reason


@dataclass
class PageContent:
    title: str
    text: str
    links: list  # (absolute url, link class or None)


class _PageParser(HTMLParser):
    def __init__(self, base_url: str):
        super().__init__(convert_charrefs=True)
        self.base_url = base_url
        self.title_parts: list[str] = []
        self.text_parts: list[str] = []
        self.links: list[tuple[str, str | None]] = []
        self._skip_depth = 0
        self._in_title = False
        self._capture_depth = 0
        self._heading_tag: str | None = None
        self._heading_buf: list[str] = []
        self._section: str | None = None

    def handle_starttag(self, tag, attrs):
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
            return
        if self._skip_depth:
            return
        if tag == "title":
            self._in_title = True
        elif tag == "p" or tag in _HEADING_TAGS:
            self._capture_depth += 1
            if tag in _HEADING_TAGS:
                self._heading_tag = tag
                self._heading_buf = []
        elif tag == "a":
            href = dict(attrs).get("href")
            if href and not href.startswith(("mailto:", "javascript:", "#")):
                absolute = urljoin(self.base_url, href)
                if urlsplit(absolute).scheme in ("http", "https"):
                    self.links.append((normalize_url(absolute), self._section))

    def handle_endtag(self, tag):
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._skip_depth:
            return
        if tag == "title":
            self._in_title = False
        elif tag == "p" or tag in _HEADING_TAGS:
            self._capture_depth = max(0, self._capture_depth - 1)
            if tag in _HEADING_TAGS and tag == self._heading_tag:
                heading = " ".join("".join(self._heading_buf).split()).lower()
                self._section = _SECTION_NAMES.get(heading)
                self._heading_tag = None

    def handle_data(self, data):
        if self._skip_depth:
            return
        if self._in_title:
            self.title_parts.append(data)
        if self._capture_depth:
            self.text_parts.append(data)
            if self._heading_tag is not None:
                self._heading_buf.append(data)


def parse_page(html: str, base_url: str) -> PageContent:
    """Best effort even on malformed HTML; never raises on bad markup."""
    parser = _PageParser(base_url)
    try:
        parser.feed(html)
        parser.close()
    except Exception:  # pragma: no cover - html.parser rarely throws
        logger.warning("malformed HTML at %s; keeping partial extraction", base_url)
    title = " ".join("".join(parser.title_parts).split())
    text = "\n".join(" ".join(part.split()) for part in parser.text_parts if part.strip())
    return PageContent(title=title, text=text, links=parser.links)


@dataclass
class FetchedPage:
    url: str
    status: int
    html: str


class HttpFetcher:
    """requests-backed fetcher with per-host politeness and robots checks."""

    def __init__(self, policy: CrawlPolicy, random_url: str | None = None,
                 sleep=time.sleep, clock=time.monotonic):
        self.policy = policy
        self.random_url = random_url
        self.session = requests.Session()
        self.session.headers["User-Agent"] = USER_AGENT
        self._sleep = sleep
        self._clock = clock
        self._last_fetch: dict[str, float] = {}
        self._robots: dict[str, robotparser.RobotFileParser | None] = {}

    def _wait_politely(self, host: str) -> None:
        if self.policy.per_host_delay <= 0:
            return
        last = self._last_fetch.get(host)
        if last is not None:
            remaining = self.policy.per_host_delay - (self._clock() - last)
            if remaining > 0:
                self._sleep(remaining)
        self._last_fetch[host] = self._clock()

    def _robots_for(self, url: str):
        host = host_of(url)
        if host not in self._robots:
            parts = urlsplit(url)
            robots_url = f"{parts.scheme}://{parts.netloc}/robots.txt"
            parser = robotparser.RobotFileParser()
            try:
                resp = self.session.get(robots_url, timeout=self.policy.fetch_timeout)
                if resp.status_code == 200:
                    parser.parse(resp.text.splitlines())
                else:
                    parser = None
            except requests.RequestException:
                parser = None
            self._robots[host] = parser
        return self._robots[host]

    def allowed(self, url: str) -> bool:
        if not self.policy.obey_robots:
            return True
        parser = self._robots_for(url)
        return parser is None or parser.can_fetch(USER_AGENT, url)

    def fetch(self, url: str) -> FetchedPage:
        if not self.allowed(url):
            raise FetchFailure(url, "disallowed by robots.txt")
        self._wait_politely(host_of(url))
        last_error = None
        for _ in range(self.policy.retry_count + 1):
            try:
                resp = self.session.get(url, timeout=self.policy.fetch_timeout)
            except requests.RequestException as exc:
                logger.debug("fetching %s: %s", url, exc)
                last_error = type(exc).__name__
                continue
            if resp.status_code < 400:
                return FetchedPage(url=normalize_url(url), status=resp.status_code,
                                   html=resp.text)
            last_error = f"HTTP {resp.status_code}"
            if resp.status_code < 500 and resp.status_code not in (408, 429):
                break  # a client error other than a timeout or rate limit is final
        raise FetchFailure(url, last_error)

    def fetch_random(self) -> FetchedPage:
        """One article from the random endpoint (a redirect to the page)."""
        if not self.random_url:
            raise UsageError("fetcher has no random-article endpoint configured")
        self._wait_politely(host_of(self.random_url))
        try:
            resp = self.session.get(self.random_url, timeout=self.policy.fetch_timeout,
                                    allow_redirects=False)
        except requests.RequestException as exc:
            raise FetchFailure(self.random_url, type(exc).__name__) from exc
        if resp.status_code in (301, 302, 303, 307, 308):
            target = urljoin(self.random_url, resp.headers.get("Location", ""))
            return self.fetch(target)
        if resp.status_code == 200:
            return FetchedPage(url=normalize_url(self.random_url), status=200, html=resp.text)
        raise FetchFailure(self.random_url, f"HTTP {resp.status_code}")


@dataclass
class CrawlResult:
    documents: list[Document]
    edges: list[LinkEdge]
    failures: list[CrawlFailure] = field(default_factory=list)


def _now_rfc3339() -> str:
    return datetime.now(timezone.utc).isoformat()


def crawl_snowball(seeds, policy: CrawlPolicy, fetcher, snapshot_year: int,
                   clock=None) -> CrawlResult:
    """Breadth-first expansion of the seed list up to ``policy.max_hops``.

    Each URL is fetched once, at its minimal hop distance (guaranteed by
    level-order expansion); qualifying link edges are recorded for label
    propagation, including edges pointing past the hop limit. Fetch
    failures skip the page and the crawl continues.
    """
    if not seeds:
        raise UsageError("crawl needs at least one seed")
    clock = clock or _now_rfc3339
    documents: dict[str, Document] = {}
    edges: list[LinkEdge] = []
    failures: list[CrawlFailure] = []

    level: list[str] = []
    seen: set[str] = set()
    for s in seeds:
        url = normalize_url(s.url)
        if url not in seen:
            seen.add(url)
            level.append(url)

    hop = 0
    while level and hop <= policy.max_hops:
        next_level: list[str] = []
        for url in level:
            if policy.max_pages is not None and len(documents) >= policy.max_pages:
                logger.info("page budget %d reached, stopping crawl", policy.max_pages)
                return CrawlResult(list(documents.values()), edges, failures)
            try:
                page = fetcher.fetch(url)
            except FetchFailure as exc:
                logger.warning("skipping %s: %s", url, exc.reason)
                failures.append(CrawlFailure(url, exc.reason))
                continue
            content = parse_page(page.html, url)
            documents[url] = Document(
                id=document_id(url),
                url=url,
                title=content.title,
                text=content.text,
                label=None,
                source=classify_source(url, policy.wikipedia_hosts),
                hop=hop,
                topic=None,
                snapshot_year=snapshot_year,
                fetched_at=clock(),
            )
            for target, link_class in content.links:
                if link_class not in policy.link_classes:
                    continue
                edges.append(LinkEdge(src=url, dst=target, link_class=link_class))
                if hop < policy.max_hops and target not in seen:
                    seen.add(target)
                    next_level.append(target)
        level = next_level
        hop += 1
    return CrawlResult(list(documents.values()), edges, failures)


def sample_negatives(fetcher, n: int, policy: CrawlPolicy, snapshot_year: int,
                     exclude_ids=(), clock=None) -> tuple[CrawlResult, list[Seed]]:
    """Draw ``n`` distinct random articles and expand each with the same
    hop policy.

    Articles colliding with ``exclude_ids`` (e.g. already-crawled
    controversial pages) or with an earlier draw are resampled; when the
    budget of ``max(5n, n + 20)`` draws runs out a :class:`UsageError` is
    raised. Failed draws come first in the result's failures.
    """
    if n <= 0:
        raise UsageError("need a positive number of negative seeds")
    exclude = set(exclude_ids)
    attempts_left = max(5 * n, n + 20)
    chosen: list[Seed] = []
    chosen_ids: set[str] = set()
    failures: list[CrawlFailure] = []
    while len(chosen) < n:
        if attempts_left <= 0:
            raise UsageError(
                f"could not find {n} distinct random negatives "
                f"(got {len(chosen)}) before exhausting retries"
            )
        attempts_left -= 1
        try:
            page = fetcher.fetch_random()
        except FetchFailure as exc:
            logger.warning("random draw failed: %s", exc)
            failures.append(CrawlFailure(exc.url, exc.reason))
            continue
        doc_id = document_id(page.url)
        if doc_id in exclude or doc_id in chosen_ids:
            logger.info("resampling: random article %s collides", page.url)
            continue
        chosen_ids.add(doc_id)
        chosen.append(Seed(url=page.url, topic=None, polarity="random-negative"))
    result = crawl_snowball(chosen, policy, fetcher, snapshot_year, clock=clock)
    return CrawlResult(result.documents, result.edges, failures + result.failures), chosen


def merge_crawls(*results: CrawlResult) -> CrawlResult:
    """Union of crawl results; duplicate URLs keep the smaller hop, and a
    duplicate edge or failed URL keeps its first record."""
    docs: dict[str, Document] = {}
    edges: list[LinkEdge] = []
    seen_edges: set[tuple] = set()
    failures: dict[str, CrawlFailure] = {}
    for res in results:
        for doc in res.documents:
            key = normalize_url(doc.url)
            if key not in docs or doc.hop < docs[key].hop:
                docs[key] = doc
        for e in res.edges:
            key = (e.src, e.dst, e.link_class)
            if key not in seen_edges:
                seen_edges.add(key)
                edges.append(e)
        for failure in res.failures:
            failures.setdefault(failure[0], failure)
    return CrawlResult(list(docs.values()), edges, list(failures.values()))


def build_dataset(seeds, policy: CrawlPolicy, fetcher, snapshot_year: int,
                  n_random_negatives: int = 0, clock=None):
    """Crawl seeds, optionally add random negatives, and propagate labels.

    Returns the merged :class:`CrawlResult`, with every failure of the
    crawl and of the negative sampling, and all seeds, ready for splitting
    and writing.
    """
    from .corpus import propagate_labels

    result = crawl_snowball(seeds, policy, fetcher, snapshot_year, clock=clock)
    all_seeds = list(seeds)
    if n_random_negatives > 0:
        existing = {d.id for d in result.documents}
        negatives, negative_seeds = sample_negatives(
            fetcher, n_random_negatives, policy, snapshot_year,
            exclude_ids=existing, clock=clock,
        )
        result = merge_crawls(result, negatives)
        all_seeds.extend(negative_seeds)
    propagate_labels(result.documents, result.edges, all_seeds)
    return result, all_seeds


def parse_seed_listing(html: str, base_url: str, polarity: str = "controversial") -> list[Seed]:
    """Turn a saved copy of a curated issue-listing page into seeds.

    Article links are grouped under the page's section headings, which
    become the seeds' topic tags.
    """

    class _SeedParser(HTMLParser):
        def __init__(self):
            super().__init__(convert_charrefs=True)
            self.topic = None
            self._heading = False
            self._buf: list[str] = []
            self.seeds: list[Seed] = []
            self._seen: set[str] = set()

        def handle_starttag(self, tag, attrs):
            if tag in ("h2", "h3"):
                self._heading = True
                self._buf = []
            elif tag == "a" and self.topic is not None:
                href = dict(attrs).get("href")
                if href and not href.startswith("#"):
                    url = normalize_url(urljoin(base_url, href))
                    if url not in self._seen:
                        self._seen.add(url)
                        self.seeds.append(Seed(url=url, topic=self.topic, polarity=polarity))

        def handle_endtag(self, tag):
            if tag in ("h2", "h3") and self._heading:
                self._heading = False
                heading = " ".join("".join(self._buf).split())
                self.topic = heading or None

        def handle_data(self, data):
            if self._heading:
                self._buf.append(data)

    parser = _SeedParser()
    parser.feed(html)
    parser.close()
    return parser.seeds
