"""LIME's word removal, one walk over the index's text-ordered spans, equals
a regex substitution that drops every word whose lowercase form the mask
switches off."""

import numpy as np
import pytest

from phishlens.lime_text import _WORD_RE, _remove_words, build_word_index

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_WORDS = ("free", "prize", "click", "now", "a", "x1", "naïve", "_id")
_SEPARATORS = (" ", "", ", ", "\n", "-", "!! ", "http://", "é")


@st.composite
def _case_varied_word(draw):
    word = draw(st.sampled_from(_WORDS))
    flips = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if up else c for c, up in zip(word, flips))


# repeated, case-varied words, interleaved with separators (an empty one
# glues neighbours into a new word), or arbitrary text
_TEXTS = st.one_of(
    st.lists(st.tuples(_case_varied_word(), st.sampled_from(_SEPARATORS)), max_size=24).map(
        lambda pairs: "".join(w + sep for w, sep in pairs)
    ),
    st.text(max_size=60),
)


def _substitution_reference(text, removed):
    return _WORD_RE.sub(lambda m: "" if m.group().lower() in removed else m.group(), text)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(_TEXTS, st.data())
def test_remove_words_matches_the_regex_substitution(text, data):
    index = build_word_index(text)
    n = len(index)
    mask = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    removed = {word for word, keep in zip(index.distinct_words, mask) if keep == 0}
    assert _remove_words(index, mask) == _substitution_reference(text, removed)
