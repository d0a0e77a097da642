import pytest

from spans import CountTarget, SpanTarget, Tracer, count_totals, self_time_by_name, self_times, subtree


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_span_minus_direct_children():
    # outer [0, 10] holds a [1, 4] (with a.inner [2, 3]) and b [5, 6]
    tr = Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 6, 10))
    with tr.span("outer"):
        with tr.span("a"):
            with tr.span("a.inner"):
                pass
        with tr.span("b"):
            pass
    assert [s.name for s in tr.spans] == ["outer", "a", "a.inner", "b"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert self_times(tr.spans) == [6, 2, 1, 1]
    # the self times of a tree add up to the root's duration
    assert sum(self_times(tr.spans)) == tr.spans[0].duration


def test_self_time_by_name_sums_same_named_spans_within_a_subtree():
    tr = Tracer(clock=_clock(0, 1, 3, 4, 7, 8, 9, 20, 21, 22))
    with tr.span("pass"):
        with tr.span("x"):
            with tr.span("x"):  # a nested call of the same entry point
                pass
        with tr.span("y"):
            pass
    with tr.span("other"):
        pass
    inside = subtree(tr.spans, 0)
    assert inside == [0, 1, 2, 3]
    assert self_time_by_name(tr.spans, inside) == {"pass": 13, "x": 6, "y": 1}
    assert self_time_by_name(tr.spans)["other"] == 1


def test_counts_attach_to_innermost_open_span():
    tr = Tracer()
    with tr.span("outer"):
        tr.count("calls")
        with tr.span("inner"):
            tr.count("calls", 2)
            tr.count("evals", 40)
    assert tr.spans[0].counts == {"calls": 1}
    assert count_totals(tr.spans) == {"calls": 3, "evals": 40}
    assert count_totals(tr.spans, subtree(tr.spans, 1)) == {"calls": 2, "evals": 40}
    with pytest.raises(RuntimeError):
        tr.count("calls")


class _Owner:
    def method(self, x):
        return x + 1


def test_installed_wrappers_record_and_are_removed_even_on_error():
    import types

    mod = types.SimpleNamespace(fn=lambda x: x * 2)
    original_method = _Owner.__dict__["method"]
    tr = Tracer()
    targets = [
        SpanTarget(_Owner, "method", "owner.method", observe=lambda res, t: t.count("seen", res)),
        CountTarget(mod, "fn", lambda res, t: t.count("fn_calls")),
    ]
    with pytest.raises(ValueError):
        with tr.installed(targets):
            with tr.span("run"):
                assert _Owner().method(4) == 5
                assert mod.fn(3) == 6
            raise ValueError("boom")
    assert _Owner.__dict__["method"] is original_method
    assert mod.fn(3) == 6 and len(tr.spans) == 2
    assert tr.spans[1].name == "owner.method" and tr.spans[1].counts == {"seen": 5}
    assert tr.spans[0].counts == {"fn_calls": 1}
