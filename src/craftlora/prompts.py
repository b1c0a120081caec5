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


@dataclass(frozen=True)
class PromptSpec:
    stripped: str
    has_content_marker: bool
    has_style_marker: bool


def parse_prompt(text):
    """Marker flags and marker-free text of a raw prompt.

    ``<c>`` and ``<s>`` may appear anywhere in the prompt: only their
    presence is read, and it switches on the content and the style adapter.
    A closing marker appearing before its opener is malformed.
    """
    for opener, closer in ((CONTENT_MARKER, CONTENT_CLOSER), (STYLE_MARKER, STYLE_CLOSER)):
        if closer in text:
            if opener not in text or text.index(closer) < text.index(opener):
                raise MalformedMarkers(f"closing marker {closer!r} precedes its opener")
    return PromptSpec(
        stripped=" ".join(_MARKER_RE.sub(" ", text).split()),
        has_content_marker=CONTENT_MARKER in text,
        has_style_marker=STYLE_MARKER in text,
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
