"""Supply-function tests."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from gridfire.budget import (
    Budget,
    constant,
    containment_budget,
    parse_budget,
    periodic,
)


def test_constant_cumulative():
    b = constant(2)
    assert b.cumulative(5) == 10
    assert b.cumulative(0) == 0


def test_periodic_21_prefix_sums_and_cap():
    b = periodic([2, 1])
    assert [b.cumulative(t) for t in (1, 2, 3, 4)] == [2, 3, 5, 6]
    for t in range(1, 10_001):
        assert 2 * b.cumulative(t) <= 3 * t + 1


def test_messinger_period_sum():
    # Period 2n+1; two firefighters when t mod (2n+1) is zero or odd, else one.
    for n in range(1, 6):
        period = 2 * n + 1
        values = [2 if (t % period == 0 or t % period % 2 == 1) else 1
                  for t in range(1, period + 1)]
        b = periodic(values)
        assert b.cumulative(period) == 3 * n + 2


def test_containment_budget_closed_form():
    for m in (1, 2, 3, 5):
        b = containment_budget(m)
        for t in range(0, 50):
            assert b.cumulative(t) == 3 * t + -(-t // m)  # 3t + ceil(t/m)


@given(
    st.lists(st.integers(min_value=0, max_value=5), max_size=4),
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5),
    st.integers(min_value=0, max_value=300),
)
def test_cumulative_matches_brute_sum(prefix, cycle, t):
    b = Budget(prefix=tuple(prefix), cycle=tuple(cycle))
    assert b.cumulative(t) == sum(b.at(k) for k in range(1, t + 1))


def test_cumulative_is_nondecreasing():
    b = Budget(prefix=(3, 0), cycle=(1, 0, 2))
    values = [b.cumulative(t) for t in range(40)]
    assert values == sorted(values)


def test_parse_round_trip():
    for spec in ("const:4", "periodic:2,1", "prefix:5,0|1,2"):
        b = parse_budget(spec)
        assert b.describe() == spec
        assert parse_budget(b.describe()).cumulative(17) == b.cumulative(17)


def test_parse_table(tmp_path):
    path = tmp_path / "budget.json"
    path.write_text("[3, 1, 4]")
    b = parse_budget(f"table:{path}")
    assert [b.at(t) for t in (1, 2, 3, 4, 5)] == [3, 1, 4, 0, 0]


def test_relative_table_is_read_from_root(tmp_path):
    (tmp_path / "budget.json").write_text("[3, 1, 4]")
    b = parse_budget("table:budget.json", root=tmp_path)
    assert [b.at(t) for t in (1, 2, 3, 4)] == [3, 1, 4, 0]
    assert b.describe() == "table:budget.json"  # the label is the spec as written
    # An absolute path does not depend on the root.
    assert parse_budget(f"table:{tmp_path / 'budget.json'}", root="elsewhere").at(3) == 4


def test_bad_specs_rejected():
    for spec in ("", "const:", "periodic:", "nope:1"):
        with pytest.raises(ValueError):
            parse_budget(spec)
    with pytest.raises(ValueError):
        Budget(cycle=())
    with pytest.raises(ValueError):
        Budget(cycle=(-1,))


@pytest.mark.parametrize("call, message", [
    (lambda b: b.at(0), "rounds are numbered from 1"),
    (lambda b: b.cumulative(-1), "t must be nonnegative"),
], ids=["at-0", "cumulative-minus-1"])
def test_rounds_before_the_first_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(constant(2))


@pytest.mark.parametrize("content", ["[1, true]", "[false]", "{}", "[1.5]", "[" * 100000])
def test_bad_table_files_rejected(tmp_path, content):
    path = tmp_path / "budget.json"
    path.write_text(content)
    with pytest.raises(ValueError):
        parse_budget(f"table:{path}")


def test_unreadable_table_is_a_value_error(tmp_path):
    for target in (tmp_path / "absent.json", tmp_path):
        with pytest.raises(ValueError, match="cannot read budget table"):
            parse_budget(f"table:{target}")


@pytest.mark.parametrize("content", [b"root:x:0:0", b"\xff\xfe[1]"], ids=["text", "not-utf-8"])
def test_table_that_is_not_json_is_named(tmp_path, content):
    path = tmp_path / "budget.json"
    path.write_bytes(content)
    name = re.escape(repr(str(path)))
    with pytest.raises(ValueError, match=f"^budget table {name} is not JSON: "):
        parse_budget(f"table:{path}")


_BUDGET_TEXT = st.one_of(
    st.text(),
    st.builds(lambda kind, rest: f"{kind}:{rest}",
              st.sampled_from(["const", "periodic", "prefix", "table", "nope", ""]),
              st.text(alphabet="0123456789-,| _x.", max_size=12)),
)


@settings(max_examples=300, deadline=None)
@given(spec=_BUDGET_TEXT)
def test_parse_budget_raises_only_value_error(spec):
    try:
        parse_budget(spec)
    except ValueError:
        pass
