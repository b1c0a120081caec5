import itertools

import numpy as np
import pytest

from craftlora.exceptions import MalformedMarkers
from craftlora.pairs import (
    CONTENT_MODIFIERS,
    CONTENT_PROMPTS,
    STYLE_MODIFIERS,
    STYLE_PROMPTS,
)
from craftlora.prompts import EMB_DIM, encode_semantic, parse_prompt


class TestParsePrompt:
    def test_reference_example(self):
        spec = parse_prompt("A photo of a person <c> smiling in a watercolor style <s>")
        assert spec.has_content_marker and spec.has_style_marker
        assert spec.stripped == "A photo of a person smiling in a watercolor style"

    def test_plain_sentence(self):
        spec = parse_prompt("A plain sentence")
        assert not spec.has_content_marker and not spec.has_style_marker
        assert spec.stripped == "A plain sentence"

    def test_single_marker(self):
        spec = parse_prompt("A dog <c> running")
        assert spec.has_content_marker and not spec.has_style_marker
        assert spec.stripped == "A dog running"
        # a marker counts wherever it stands, the very start included
        spec = parse_prompt("<c> leading marker")
        assert spec.has_content_marker and not spec.has_style_marker
        assert spec.stripped == "leading marker"

    def test_stripped_has_no_marker_tokens(self):
        spec = parse_prompt("x <c> y </c> z <s> w </s>")
        for token in ("<c>", "</c>", "<s>", "</s>"):
            assert token not in spec.stripped

    def test_closer_before_opener_rejected(self):
        with pytest.raises(MalformedMarkers):
            parse_prompt("broken </c> order <c>")
        with pytest.raises(MalformedMarkers):
            parse_prompt("lonely closer </s>")


class TestEncodeSemantic:
    def test_empty_string_is_null(self):
        assert np.array_equal(encode_semantic(""), np.zeros(EMB_DIM))

    def test_deterministic(self):
        a = encode_semantic("a red car in watercolor")
        b = encode_semantic("a red car in watercolor")
        assert np.array_equal(a, b)

    def test_token_order_sensitive(self):
        a = encode_semantic("red car")
        b = encode_semantic("car red")
        assert not np.allclose(a, b)

    def test_dimension(self):
        assert encode_semantic("anything").shape == (EMB_DIM,)

    def test_no_collisions_over_toy_vocabulary(self):
        vocab = sorted(
            {
                tok
                for text in itertools.chain(
                    CONTENT_PROMPTS, CONTENT_MODIFIERS, STYLE_PROMPTS, STYLE_MODIFIERS
                )
                for tok in text.split()
            }
        )
        embeddings = [encode_semantic(tok) for tok in vocab]
        for i in range(len(vocab)):
            for j in range(i + 1, len(vocab)):
                assert not np.allclose(embeddings[i], embeddings[j]), (
                    vocab[i],
                    vocab[j],
                )

    def test_single_token_difference_changes_embedding(self):
        base = "a filled disc in checker style"
        variant = "a hollow disc in checker style"
        assert not np.allclose(encode_semantic(base), encode_semantic(variant))
