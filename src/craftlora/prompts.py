"""Prompt parsing with content/style routing markers and a toy text encoder.

The encoder hashes whitespace tokens into fixed 64-dim vectors and averages
them with position weights, so it is deterministic, order-sensitive and
collision-free over any small vocabulary; the empty string maps to the null
(all-zero) embedding, which is the unconditional signal everywhere.
"""

import re
from dataclasses import dataclass

import numpy as np

from .exceptions import MalformedMarkers
from .utils import derive_seed, make_rng

EMB_DIM = 64

CONTENT_MARKER = "<c>"
CONTENT_CLOSER = "</c>"
STYLE_MARKER = "<s>"
STYLE_CLOSER = "</s>"
ALL_MARKERS = (CONTENT_MARKER, CONTENT_CLOSER, STYLE_MARKER, STYLE_CLOSER)

_MARKER_RE = re.compile("|".join(re.escape(m) for m in ALL_MARKERS))
_SENTENCE_BREAKS = ".!?"


@dataclass(frozen=True)
class PromptSpec:
    raw: str
    stripped: str
    content_span: str
    style_span: str
    has_content_marker: bool
    has_style_marker: bool


def _span_before(text, marker_pos):
    """Text between the previous boundary and a marker position.

    Boundaries are the string start, the end of any earlier marker, and the
    last sentence-ending punctuation mark.
    """
    start = 0
    for m in _MARKER_RE.finditer(text, 0, marker_pos):
        start = max(start, m.end())
    for ch in _SENTENCE_BREAKS:
        idx = text.rfind(ch, start, marker_pos)
        if idx >= 0:
            start = max(start, idx + 1)
    return text[start:marker_pos].strip()


def parse_prompt(text):
    """Split a raw prompt into routing spans and marker-free text.

    The span preceding ``<c>`` (back to the sentence start or the previous
    marker) becomes the content span, and likewise for ``<s>``. A closing
    marker appearing before its opener is malformed.
    """
    for opener, closer in ((CONTENT_MARKER, CONTENT_CLOSER), (STYLE_MARKER, STYLE_CLOSER)):
        if closer in text:
            if opener not in text or text.index(closer) < text.index(opener):
                raise MalformedMarkers(f"closing marker {closer!r} precedes its opener")

    has_content = CONTENT_MARKER in text
    has_style = STYLE_MARKER in text
    content_span = _span_before(text, text.index(CONTENT_MARKER)) if has_content else ""
    style_span = _span_before(text, text.index(STYLE_MARKER)) if has_style else ""
    stripped = " ".join(_MARKER_RE.sub(" ", text).split())
    return PromptSpec(
        raw=text,
        stripped=stripped,
        content_span=content_span,
        style_span=style_span,
        has_content_marker=has_content,
        has_style_marker=has_style,
    )


_token_cache = {}


def _token_vector(token):
    vec = _token_cache.get(token)
    if vec is None:
        vec = make_rng(derive_seed(0, "token", token)).standard_normal(EMB_DIM)
        vec.flags.writeable = False
        _token_cache[token] = vec
    return vec


def encode_semantic(text):
    """Deterministic 64-dim embedding of marker-free text.

    Tokens are embedded through a seeded hash and combined with position
    weights 1/(1+p), so token order matters. The empty string yields the
    null embedding.
    """
    tokens = text.split()
    if not tokens:
        return np.zeros(EMB_DIM)
    acc = np.zeros(EMB_DIM)
    total = 0.0
    for pos, token in enumerate(tokens):
        weight = 1.0 / (1.0 + pos)
        acc += weight * _token_vector(token)
        total += weight
    return acc / total
