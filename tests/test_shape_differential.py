"""Every text is read through its shape: the shape's parse, bound to the
text's literals, gives what the text's own parse gives.  Over the texts of
``tests/parse_golden.json`` and fixed-seed token edits of each, on the
schema each text belongs to, both give the same kept readings, or raise
errors of one class and one message (a syntax error's position too, since
a shape keeps its tokens' positions)."""

from __future__ import annotations

import random

import pytest

from conquer import cli
from conquer.errors import ConquerError
from conquer.frontend import tokenize

from .test_parse_golden import _golden, _schema

# the edits of each golden text, and tokens an edit may put in: literals of
# each kind and some the grammar places around them
EDITS_PER_TEXT = 6
INSERTS = ["1000", "2.5", "'acme'", "1000", "(", ")", ",", "WHERE", "AND ALSO", "OF", "x", "a Person", ">", "*"]


def edited(text: str, rng: random.Random) -> str:
    """``text`` with one token deleted, doubled, swapped with the next or
    replaced, or with a token put in before it, its tokens joined by
    spaces."""
    words = [t.text for t in tokenize(text)]
    i = rng.randrange(len(words))
    op = rng.choice(["delete", "double", "swap", "replace", "insert"])
    if op == "delete":
        del words[i]
    elif op == "double":
        words.insert(i, words[i])
    elif op == "swap" and i + 1 < len(words):
        words[i], words[i + 1] = words[i + 1], words[i]
    elif op == "replace":
        words[i] = rng.choice(INSERTS + words)
    else:
        words.insert(i, rng.choice(INSERTS))
    return " ".join(words)


def _cases() -> list[tuple[str, list[str]]]:
    """Each golden text that has tokens, with its schema and its edits that
    have tokens."""
    cases = []
    for index, entry in enumerate(_golden()):
        text = entry["text"]
        try:
            if not tokenize(text):
                continue
        except ConquerError:
            continue  # a lexical error comes before any shape
        rng = random.Random(index)
        variants = [edited(text, rng) for _ in range(EDITS_PER_TEXT)]
        cases.append((entry["schema"], [text] + [v for v in variants if tokenize(v)]))
    return cases


CASES = _cases()


def outcome(read) -> tuple:
    try:
        return ("readings", read())
    except ConquerError as e:
        return (type(e).__name__, str(e))


def own_outcome(schema, text: str) -> tuple:
    return outcome(lambda: cli._kept(cli._readings(schema, tokenize(text))))


def shaped_outcome(schema, text: str) -> tuple:
    _, values, shaped = cli._shape(tokenize(text))
    return outcome(lambda: cli._bind(cli._kept(cli._readings(schema, shaped)), values))


def test_the_cases_hold_answers_and_errors():
    texts = [(name, text) for name, variants in CASES for text in variants]
    kinds = {own_outcome(_schema(name), text)[0] for name, text in texts[::10]}
    assert len(texts) >= 1200 and {"readings", "ParseError"} <= kinds


@pytest.mark.parametrize("schema_name, texts", CASES, ids=lambda v: v[0][:60] if isinstance(v, list) else v)
def test_the_shape_reads_a_text_as_its_own_parse_does(schema_name, texts):
    schema = _schema(schema_name)
    for text in texts:
        assert shaped_outcome(schema, text) == own_outcome(schema, text), text
