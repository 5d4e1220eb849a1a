"""Property oracles for the two inputs a user gives the decoder: the anchor
markup (parse_markup against a writer of markup) and the strength picked by
the grid search (_best_on_grid and the fold vote against a brute-force argmax)."""

import string
from collections import Counter

from hypothesis import assume, given, settings, strategies as st

from anchored_decoding import TuneSpec, parse_markup
from anchored_decoding.tuning import _best, _best_on_grid

ORACLE = settings(max_examples=300, deadline=None, database=None, derandomize=True)


DELIMITERS = st.one_of(
    st.sampled_from([("⟦", "⟧"), ("[", "]")]),
    st.lists(st.sampled_from(string.ascii_lowercase), min_size=2, max_size=2, unique=True).map(tuple),
)


def write_markup(segments, open_delim, close_delim):
    """Double every delimiter in each text and wrap the anchored ones; also
    return the offsets of the wrapping delimiters."""
    out, wrappers = "", []
    for text, anchored in segments:
        text = text.replace(open_delim, open_delim * 2).replace(close_delim, close_delim * 2)
        if anchored:
            wrappers += [len(out), len(out) + 1 + len(text)]
            text = open_delim + text + close_delim
        out += text
    return out, wrappers


def expected_segments(segments):
    """Adjacent plain segments joined (no delimiter parts them), then every
    empty segment dropped; an empty prompt is one empty plain segment."""
    joined = []
    for text, anchored in segments:
        if joined and not anchored and not joined[-1][1]:
            joined[-1] = (joined[-1][0] + text, False)
        else:
            joined.append((text, anchored))
    return tuple(s for s in joined if s[0]) or (("", False),)


@ORACLE
@given(st.data())
def test_markup_round_trip(data):
    open_delim, close_delim = data.draw(DELIMITERS)
    alphabet = st.sampled_from(open_delim + close_delim + "ab ⟦⟧[]")
    segments = data.draw(st.lists(st.tuples(st.text(alphabet, max_size=6), st.booleans()), max_size=6))
    markup, wrappers = write_markup(segments, open_delim, close_delim)
    # a doubled delimiter reads first, so "⟦⟦⟦" is a literal then an open: a
    # span cannot begin with its own open delimiter, nor text after a span
    # with a close one
    assume(all(markup[p + 1 : p + 2] != markup[p] for p in wrappers))
    assert parse_markup(markup, open_delim, close_delim).segments == expected_segments(segments)


def brute_force_best(pairs):
    top = max(score for _, score in pairs)
    return min((omega for omega, score in pairs if score == top), key=lambda omega: (abs(omega - 1.0), omega))


@ORACLE
@given(st.data())
def test_best_on_grid_is_the_argmax_over_the_evaluated_prefix(data):
    grid = tuple(sorted({1.0} | set(data.draw(st.lists(st.integers(-20, 40), max_size=12).map(
        lambda steps: [round(1.0 + 0.05 * s, 2) for s in steps])))))
    scores = data.draw(st.lists(st.integers(0, 3).map(lambda n: n / 3), min_size=len(grid), max_size=len(grid)))
    table = dict(zip(grid, scores))
    for early_exit in (False, True):
        seen = []

        def evaluator(omega, task_ids):
            seen.append(omega)
            return table[omega]

        picked = _best_on_grid(evaluator, [0, 1], TuneSpec(grid=grid, early_exit=early_exit))
        # the prefix: the whole grid, or with the early exit up to the first
        # score that ends two strict decreases in a row
        stop = next((i for i in range(2, len(grid)) if scores[i - 2] > scores[i - 1] > scores[i]), len(grid) - 1)
        assert seen == list(grid[: stop + 1] if early_exit else grid)
        assert picked == brute_force_best([(omega, table[omega]) for omega in seen])


@ORACLE
@given(st.lists(st.sampled_from([0.5, 0.95, 1.0, 1.05, 1.5, 2.0]), min_size=2, max_size=9))
def test_fold_vote_is_the_most_common_best(bests):
    assert _best(Counter(bests)) == brute_force_best(list(Counter(bests).items()))
