"""pretokenize in one str.translate pass equals the per-character loop it
replaced, on arbitrary Unicode text."""

import unicodedata

import pytest

from phishlens.tokenizer import _is_control, _is_punctuation, _is_whitespace, pretokenize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _per_character_pretokenize(text):
    text = unicodedata.normalize("NFD", text.lower())
    tokens, current = [], []
    for ch in text:
        if unicodedata.category(ch) == "Mn" or _is_control(ch):
            continue
        if _is_whitespace(ch):
            if current:
                tokens.append("".join(current))
                current = []
        elif _is_punctuation(ch):
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        else:
            current.append(ch)
    if current:
        tokens.append("".join(current))
    return tokens


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(st.text(max_size=80))
def test_pretokenize_matches_the_per_character_loop(text):
    assert pretokenize(text) == _per_character_pretokenize(text)


@pytest.mark.parametrize(
    "text",
    [
        "a\u2028b\u2029c d",  # line/paragraph separators stay inside words
        "x\u000by\u001cz\u0085w",  # control characters vanish without splitting
        "caf\u00e9 Cafe\u0301  na\u00efve\u3000!!",
        "Click: http://x.io/$5^`now`",
    ],
)
def test_pretokenize_matches_the_per_character_loop_on_edge_cases(text):
    assert pretokenize(text) == _per_character_pretokenize(text)
