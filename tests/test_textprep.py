import pytest

from controkit.errors import UsageError
from controkit.textprep import (
    OOV_INDEX,
    PAD_INDEX,
    build_vocabulary,
    encode_sentences,
    encode_tokens,
    split_sentences,
    tokenize,
)


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_simple_sentence(self):
        assert tokenize("Scientology brainwashes people.") == [
            "scientology", "brainwashes", "people",
        ]

    def test_punctuation_and_digits(self):
        assert tokenize("U.S.-led (2003)") == ["u", "s", "led", "2003"]

    def test_standalone_punctuation_dropped(self):
        assert tokenize("... !!! ---") == []

    def test_underscore_is_a_boundary(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_unicode(self):
        assert tokenize("Łódź çöür 42x") == ["łódź", "çöür", "42x"]

    def test_deterministic(self):
        text = "Some Repeated. TEXT with 99 numbers?"
        assert tokenize(text) == tokenize(text)


class TestSplitSentences:
    def test_two_sentences(self):
        assert split_sentences("A b. C d.") == ["A b", "C d"]

    def test_no_terminator_single_sentence(self):
        assert split_sentences("no terminator here") == ["no terminator here"]

    def test_newline_runs(self):
        assert split_sentences("first\n\nsecond") == ["first", "second"]

    def test_exclamation_question(self):
        assert split_sentences("Really?! Yes. Go!") == ["Really", "Yes", "Go"]

    def test_abbreviation_guard(self):
        assert split_sentences("Dr. Smith arrived. Then left.") == [
            "Dr. Smith arrived", "Then left",
        ]
        assert split_sentences("Fruit, e.g. apples, is fine. Next.") == [
            "Fruit, e.g. apples, is fine", "Next",
        ]

    def test_five_sentence_fixture_matches_hand_segmentation(self):
        paragraph = (
            "The debate raged for years. Nobody conceded an inch! "
            "Was there a resolution? Parliament moved on.\n"
            "History remembers it differently."
        )
        # segmented by hand according to the stated rule
        expected = [
            "The debate raged for years",
            "Nobody conceded an inch",
            "Was there a resolution",
            "Parliament moved on",
            "History remembers it differently",
        ]
        assert split_sentences(paragraph) == expected

    def test_no_empty_sentences(self):
        assert split_sentences("... . ! ?") == []


class TestVocabulary:
    def test_build_small(self):
        vocab = build_vocabulary(["a a b"], max_size=50, min_freq=1)
        assert vocab.token_to_index == {"<pad>": 0, "<oov>": 1, "a": 2, "b": 3}

    def test_min_freq_filters(self):
        vocab = build_vocabulary(["a a b"], max_size=50, min_freq=2)
        assert "a" in vocab and "b" not in vocab

    def test_max_size_counts_reserved_slots(self):
        vocab = build_vocabulary(["a a b"], max_size=3, min_freq=1)
        assert len(vocab) == 3
        assert "a" in vocab and "b" not in vocab

    def test_frequency_then_lexicographic_order(self):
        vocab = build_vocabulary(["b b c c a"], max_size=50, min_freq=1)
        assert vocab.index_to_token[2:] == ["b", "c", "a"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            build_vocabulary([], max_size=10, min_freq=1)

    def test_document_stream_objects(self):
        class Doc:
            def __init__(self, text):
                self.text = text

        vocab = build_vocabulary([Doc("x y"), Doc("x")], max_size=10, min_freq=1)
        assert vocab.index("x") == 2

    def test_bijective_over_non_reserved(self):
        vocab = build_vocabulary(["one two three two"], max_size=50, min_freq=1)
        for token in vocab.words():
            assert vocab.index_to_token[vocab.token_to_index[token]] == token
        assert sorted(vocab.token_to_index.values()) == list(range(len(vocab)))


class TestEncode:
    def test_tokens_unpadded_and_cut_at_max_tokens(self, small_vocab):
        assert encode_tokens("alpha beta gamma", small_vocab, 5) == [2, 3, 4]
        text = "alpha beta gamma delta epsilon alpha beta"
        assert encode_tokens(text, small_vocab, 5) == [2, 3, 4, 5, 6]

    def test_all_unknown_tokens(self, small_vocab):
        assert encode_tokens("zzz qqq", small_vocab, 4) == [OOV_INDEX, OOV_INDEX]
        assert encode_sentences("zzz qqq", small_vocab, 30, 50) == [[OOV_INDEX, OOV_INDEX]]

    def test_sentence_prefix_truncation(self, small_vocab):
        text = " ".join(f"alpha beta{i % 2}." for i in range(40))
        sentences = encode_sentences(text, small_vocab, 30, 50)
        assert len(sentences) == 30

    def test_word_truncation_within_sentence(self, small_vocab):
        sentences = encode_sentences("alpha " * 60, small_vocab, 30, 50)
        assert len(sentences[0]) == 50

    def test_empty_document_flagged(self, small_vocab):
        # an empty encoding is what a model's network_input refuses
        for text in ("", "--- !!!"):
            assert encode_tokens(text, small_vocab, 4) == []
            assert encode_sentences(text, small_vocab, 30, 50) == []

    def test_empty_sentences_dropped(self, small_vocab):
        assert encode_sentences("alpha. ---. beta.", small_vocab, 30, 50) == [[2], [3]]

    def test_encode_decode_round_trip(self, small_vocab):
        text = "alpha beta gamma delta"
        enc = encode_tokens(text, small_vocab, 10)
        assert PAD_INDEX not in enc
        assert [small_vocab.index_to_token[i] for i in enc] == tokenize(text)

    def test_pure_and_deterministic(self, small_vocab):
        text = "alpha beta. gamma delta epsilon."

        class Doc:
            def __init__(self, text):
                self.text = text

        for encode in (lambda doc: encode_tokens(doc, small_vocab, 400),
                       lambda doc: encode_sentences(doc, small_vocab, 30, 50)):
            assert encode(text) == encode(text)
            assert encode(Doc(text)) == encode(text)
