import json
import re

import pytest

from controkit.corpus import (
    CONTROVERSIAL,
    NON_CONTROVERSIAL,
    RECORD_FIELDS,
    AnnotationRecord,
    CrawlFailure,
    Document,
    LinkEdge,
    Seed,
    assign_seeds,
    classify_source,
    compute_stats,
    document_id,
    normalize_url,
    propagate_labels,
    read_annotations,
    read_documents,
    read_edges,
    read_records,
    read_seeds,
    split_dataset,
    write_annotations,
    write_documents,
    write_edges,
    write_records,
    write_seeds,
)
from controkit.errors import DataFormatError, IntegrityError, UsageError


def make_doc(url, hop=0, label=CONTROVERSIAL, source="wikipedia", topic=None):
    return Document(
        id=document_id(url), url=url, title=url, text="text of " + url,
        label=label, source=source, hop=hop, topic=topic,
        snapshot_year=2018, fetched_at="2020-01-01T00:00:00+00:00",
    )


class TestUrls:
    def test_normalize_drops_fragment_and_case(self):
        assert normalize_url("HTTP://Wiki.Test/Page#frag") == "http://wiki.test/Page"

    def test_document_id_stable(self):
        assert document_id("http://a.test/x") == document_id("http://a.test/x#y")
        assert len(document_id("http://a.test/x")) == 16

    def test_classify_source(self):
        hosts = ("wikipedia.org",)
        assert classify_source("https://en.wikipedia.org/wiki/X", hosts) == "wikipedia"
        assert classify_source("https://wikipedia.org/wiki/X", hosts) == "wikipedia"
        assert classify_source("https://example.com/page", hosts) == "general-web"
        assert classify_source("http://notwikipedia.org/x", hosts) == "general-web"


class TestPropagation:
    def test_seed_to_page(self):
        docs = [make_doc("http://w/s"), make_doc("http://w/a", hop=1)]
        edges = [LinkEdge("http://w/s", "http://w/a", "see-also")]
        seeds = [Seed("http://w/s", "politics", CONTROVERSIAL)]
        propagate_labels(docs, edges, seeds)
        assert docs[1].label == CONTROVERSIAL
        assert docs[1].topic == "politics"

    def test_negative_only_reachability(self):
        docs = [make_doc("http://w/r"), make_doc("http://w/b", hop=1)]
        edges = [LinkEdge("http://w/r", "http://w/b", "see-also")]
        seeds = [Seed("http://w/r", None, "random-negative")]
        propagate_labels(docs, edges, seeds)
        assert docs[0].label == NON_CONTROVERSIAL
        assert docs[1].label == NON_CONTROVERSIAL
        assert docs[1].topic is None

    def test_positive_wins_over_negative(self):
        docs = [make_doc("http://w/s"), make_doc("http://w/r"), make_doc("http://w/x", hop=1)]
        edges = [
            LinkEdge("http://w/r", "http://w/x", "see-also"),
            LinkEdge("http://w/s", "http://w/x", "see-also"),
        ]
        seeds = [
            Seed("http://w/r", None, "random-negative"),
            Seed("http://w/s", "religion", CONTROVERSIAL),
        ]
        propagate_labels(docs, edges, seeds)
        assert docs[2].label == CONTROVERSIAL
        assert docs[2].topic == "religion"

    def test_topic_tie_breaks_by_seed_order(self):
        docs = [make_doc("http://w/s1"), make_doc("http://w/s2"), make_doc("http://w/x", hop=1)]
        edges = [
            LinkEdge("http://w/s2", "http://w/x", "see-also"),
            LinkEdge("http://w/s1", "http://w/x", "see-also"),
        ]
        seeds = [
            Seed("http://w/s1", "first", CONTROVERSIAL),
            Seed("http://w/s2", "second", CONTROVERSIAL),
        ]
        propagate_labels(docs, edges, seeds)
        assert docs[2].topic == "first"

    def test_unreachable_page_is_integrity_error(self):
        docs = [make_doc("http://w/s"), make_doc("http://w/orphan", hop=1)]
        seeds = [Seed("http://w/s", "t", CONTROVERSIAL)]
        with pytest.raises(IntegrityError, match="unreachable"):
            propagate_labels(docs, [], seeds)

    def test_monotone_adding_seed_never_flips_to_negative(self, rng):
        urls = [f"http://w/p{i}" for i in range(10)]
        docs = [make_doc(u, hop=0 if i < 2 else 1) for i, u in enumerate(urls)]
        edges = []
        for _ in range(15):
            a, b = rng.integers(0, len(urls), size=2)
            edges.append(LinkEdge(urls[a], urls[b], "see-also"))
        edges.extend(LinkEdge(urls[0], u, "see-also") for u in urls[2:])
        edges.extend(LinkEdge(urls[1], u, "see-also") for u in urls[2:])
        base_seeds = [Seed(urls[0], "a", CONTROVERSIAL), Seed(urls[1], None, "random-negative")]
        propagate_labels(docs, edges, base_seeds)
        before = {d.id: d.label for d in docs}
        more_seeds = base_seeds + [Seed(urls[1], "b", CONTROVERSIAL)]
        propagate_labels(docs, edges, more_seeds)
        for d in docs:
            if before[d.id] == CONTROVERSIAL:
                assert d.label == CONTROVERSIAL


class TestSplits:
    def _world(self):
        seeds = [Seed(f"http://w/s{i}", f"t{i}", CONTROVERSIAL) for i in range(5)]
        docs = [make_doc(s.url, hop=0, topic=f"t{i}") for i, s in enumerate(seeds)]
        edges = []
        for i in range(5):
            child = f"http://w/c{i}"
            docs.append(make_doc(child, hop=1, topic=f"t{i}"))
            edges.append(LinkEdge(f"http://w/s{i}", child, "references"))
        return docs, edges, seeds

    def test_by_seed_partition_no_leakage(self):
        docs, edges, seeds = self._world()
        splits = split_dataset(docs, {"train": 3, "validation": 1, "test": 1}, 7, edges, seeds)
        ids = [set(s.doc_ids) for s in splits.values()]
        assert sum(len(s) for s in ids) == len(docs)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                assert not ids[i] & ids[j]

    def test_child_follows_its_seed(self):
        docs, edges, seeds = self._world()
        splits = split_dataset(docs, {"train": 3, "validation": 1, "test": 1}, 7, edges, seeds)
        assignment = assign_seeds(docs, edges, seeds)
        seed_split = {}
        for name, split in splits.items():
            for doc_id in split.doc_ids:
                doc = next(d for d in docs if d.id == doc_id)
                if doc.hop == 0:
                    seed_split[normalize_url(doc.url)] = name
        for name, split in splits.items():
            for doc_id in split.doc_ids:
                assert seed_split[assignment[doc_id]] == name

    def test_single_seed_neighborhood_in_one_split(self):
        seeds = [Seed("http://w/s", "t", CONTROVERSIAL)]
        docs = [make_doc("http://w/s", hop=0)] + [make_doc(f"http://w/c{i}", hop=1)
                                                  for i in range(3)]
        edges = [LinkEdge("http://w/s", f"http://w/c{i}", "see-also") for i in range(3)]
        splits = split_dataset(docs, {"train": 1, "validation": 0, "test": 0}, 0, edges, seeds)
        assert len(splits["train"].doc_ids) == 4

    def test_deterministic_given_seed(self):
        docs, edges, seeds = self._world()
        a = split_dataset(docs, {"train": 3, "validation": 1, "test": 1}, 42, edges, seeds)
        b = split_dataset(docs, {"train": 3, "validation": 1, "test": 1}, 42, edges, seeds)
        assert {k: v.doc_ids for k, v in a.items()} == {k: v.doc_ids for k, v in b.items()}

    def test_not_enough_seeds(self):
        docs, edges, seeds = self._world()
        with pytest.raises(UsageError, match="seeds"):
            split_dataset(docs, {"train": 5, "validation": 1, "test": 1}, 0, edges, seeds)

    def test_stats_recomputable(self):
        docs, edges, seeds = self._world()
        splits = split_dataset(docs, {"train": 3, "validation": 1, "test": 1}, 7, edges, seeds)
        by_id = {d.id: d for d in docs}
        for split in splits.values():
            st = compute_stats([by_id[i] for i in split.doc_ids])
            assert st == split.stats


class TestDatasetIo:
    def test_round_trip_field_exact(self, tmp_path, rng):
        docs = []
        for i in range(100):
            docs.append(Document(
                id=f"{i:016x}", url=f"http://w/p{i}", title=f"P{i} é",
                text=f"text {i}\nline", label=CONTROVERSIAL if i % 3 else NON_CONTROVERSIAL,
                source="wikipedia" if i % 2 else "general-web",
                hop=i % 3, topic=None if i % 3 == 0 else f"topic{i % 5}",
                snapshot_year=2018, fetched_at="2020-01-02T03:04:05+00:00",
            ))
        path = tmp_path / "docs.jsonl"
        write_documents(path, docs)
        assert read_documents(path) == docs

    def test_empty_file_empty_stream(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text("")
        assert read_documents(path) == []

    def test_missing_label_names_line(self, tmp_path):
        doc = make_doc("http://w/x").to_json()
        del doc["label"]
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DataFormatError, match="label.*line 1"):
            read_documents(path)

    def test_unknown_field_is_schema_mismatch(self, tmp_path):
        doc = make_doc("http://w/x").to_json()
        doc["bogus"] = 1
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DataFormatError, match="schema"):
            read_documents(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(make_doc("http://w/x").to_json()) + "\n{oops\n")
        with pytest.raises(DataFormatError, match="line 2"):
            read_documents(path)

    def test_bytes_not_utf8_name_line(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_bytes(b'{"url": "http://w/a", "topic": null, "polarity": "random-negative"}\n'
                         b'{"url": "http://w/b", "topic": "\xe9", "polarity": "random-negative"}\n')
        with pytest.raises(DataFormatError, match=r"not UTF-8: .* \(line 2\)"):
            read_seeds(path)

    def test_bad_hop_rejected(self, tmp_path):
        doc = make_doc("http://w/x").to_json()
        doc["hop"] = 7
        path = tmp_path / "docs.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(DataFormatError, match="hop"):
            read_documents(path)

    def test_seeds_and_edges_round_trip(self, tmp_path):
        seeds = [Seed("http://w/s", "politics", CONTROVERSIAL),
                 Seed("http://w/r", None, "random-negative")]
        edges = [LinkEdge("http://w/s", "http://w/a", "see-also")]
        write_seeds(tmp_path / "seeds.jsonl", seeds)
        write_edges(tmp_path / "edges.jsonl", edges)
        assert read_seeds(tmp_path / "seeds.jsonl") == seeds
        assert read_edges(tmp_path / "edges.jsonl") == edges

    def test_annotations_round_trip_and_validation(self, tmp_path):
        records = [AnnotationRecord("d1", [1.0, 2.0, 3.5])]
        write_annotations(tmp_path / "ann.jsonl", records)
        assert read_annotations(tmp_path / "ann.jsonl") == records
        (tmp_path / "bad.jsonl").write_text('{"id": "x", "scores": []}\n')
        with pytest.raises(DataFormatError, match="scores"):
            read_annotations(tmp_path / "bad.jsonl")

    def test_unlabeled_document_cannot_be_written(self, tmp_path):
        doc = make_doc("http://w/x")
        doc.label = None
        with pytest.raises(UsageError, match="label"):
            write_documents(tmp_path / "docs.jsonl", [doc])


# One well-formed record of each kind, and a field of it that must hold a string.
VALID_RECORDS = {
    Document: (make_doc("http://w/x").to_json(), "text"),
    Seed: ({"url": "http://w/s", "topic": "politics", "polarity": CONTROVERSIAL}, "url"),
    LinkEdge: ({"src": "http://w/s", "dst": "http://w/a", "link_class": "see-also"}, "src"),
    AnnotationRecord: ({"id": "d1", "scores": [1, 2.5, 4]}, "id"),
    CrawlFailure: ({"url": "http://w/gone", "reason": "HTTP 404"}, "reason"),
}


def malformed_records():
    """(kind, a bad line's JSON text, the message the reader must give) for every kind."""
    cases = []
    for kind, (valid, text_field) in VALID_RECORDS.items():
        cases += [(kind, "[1, 2]", "expected a JSON object, got list"),
                  (kind, '"http://w/s"', "expected a JSON object, got str"),
                  (kind, {k: v for k, v in valid.items() if k != text_field},
                   f"missing field '{text_field}'"),
                  (kind, {**valid, "bogus": 1}, "unknown field 'bogus'")]
        cases += [(kind, {**valid, text_field: bad}, f"bad {text_field} {bad!r}")
                  for bad in (5, True, ["x"], None)]
    doc, seed = VALID_RECORDS[Document][0], VALID_RECORDS[Seed][0]
    for kind, valid, field, bad in (
            (Document, doc, "hop", True), (Document, doc, "hop", 3), (Document, doc, "hop", -1),
            (Document, doc, "hop", 1.0), (Document, doc, "snapshot_year", True),
            (Document, doc, "snapshot_year", "2018"), (Document, doc, "label", None),
            (Document, doc, "label", 5), (Document, doc, "source", "web"),
            (Document, doc, "fetched_at", None), (Seed, seed, "polarity", 5),
            (Seed, seed, "polarity", "positive"), (Seed, seed, "topic", 5)):
        cases.append((kind, {**valid, field: bad}, f"bad {field} {bad!r}"))
    for bad in (5, True, ["x"], [], [True, 1], ["1"], None, [float("nan")], [1e999]):
        cases.append((AnnotationRecord, {"id": "d1", "scores": bad}, f"bad scores {bad!r}"))
    return [pytest.param(kind, line if isinstance(line, str) else json.dumps(line), message,
                         id=f"{kind.__name__}-{message}") for kind, line, message in cases]


@pytest.mark.parametrize("kind, line, message", malformed_records())
def test_malformed_record_names_field_and_line(tmp_path, kind, line, message):
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(VALID_RECORDS[kind][0]) + "\n\n" + line + "\n")
    with pytest.raises(DataFormatError, match=re.escape(message) + r".*\(line 3\)$"):
        read_records(kind, path)


@pytest.mark.parametrize("kind, record", [
    (Document, Document(id="0123456789abcdef", url="http://w/d\u00e9bat",
                        title="D\u00e9bat \u4e89\u8bae", text="caf\u00e9 \u2014 na\u00efve",
                        label=NON_CONTROVERSIAL, source="general-web", hop=2,
                        topic="th\u00e8me", snapshot_year=2009,
                        fetched_at="2020-01-02T03:04:05+00:00")),
    (Seed, Seed("http://w/\u00fcber", "politique \u00e9", "random-negative")),
    (LinkEdge, LinkEdge("http://w/\u00e9", "http://w/\u00fc\u00df", "references")),
    (AnnotationRecord, AnnotationRecord("d\u00e9", [1.0, 2.5])),
    (CrawlFailure, CrawlFailure("http://w/\u00f1", "HTTP 404")),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_non_ascii_round_trip(tmp_path, kind, record):
    path = tmp_path / "records.jsonl"
    write_records(kind, path, [record])
    text = path.read_text(encoding="utf-8")
    assert "\\u" not in text  # written as UTF-8, not escaped
    assert list(json.loads(text)) == [name for name, _ in RECORD_FIELDS[kind]]
    assert read_records(kind, path) == [record]


def test_annotation_scores_read_as_floats(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text('{"id": "d1", "scores": [1, 2, 3.5]}\n')
    [record] = read_annotations(path)
    assert record.scores == [1.0, 2.0, 3.5]
    assert all(type(s) is float for s in record.scores)

