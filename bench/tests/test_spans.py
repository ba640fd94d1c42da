"""Span bookkeeping: self time is duration minus what the children cover."""

import pytest

from bench.traced import END, START, Spans


def test_self_times_partition_the_root():
    spans = Spans()
    with spans.span("op"):
        with spans.span("a"):
            with spans.span("a.inner"):
                pass
        with spans.span("b"):
            pass
    own = spans.self_times()
    root = spans.rows[0][END] - spans.rows[0][START]
    assert sum(own) == pytest.approx(root)
    assert all(t >= 0 for t in own)
    assert set(spans.self_by_name("a")) == {"a", "a.inner"}


def test_rows_carry_parent_and_op():
    spans = Spans()
    spans.op = "0:x"
    with spans.span("op"):
        with spans.span("child"):
            pass
    rows = spans.to_rows()
    assert [(r["name"], r["parent"], r["op"]) for r in rows] == [("op", -1, "0:x"), ("child", 0, "0:x")]
