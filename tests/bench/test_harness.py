"""Tests for the benchmark harness and experiment drivers (small configs)."""

import pytest

from repro.bench.harness import QueryCost, average_costs, build_setup, measure_join, measure_range
from repro.bench.report import ExperimentResult, kib, millis
from repro.workload.queries import query_batch
from repro.workload.tpch import TpchGenerator


@pytest.fixture(scope="module")
def setup():
    return build_setup(shape=(16, 4, 4), seed=77)


def test_build_setup_components(setup):
    assert setup.tree.stats.num_leaves == 16 * 4 * 4
    assert setup.dataset.domain.size() == 256
    assert setup.user_roles
    assert setup.missing_roles() is None  # flat workload


def test_measure_range_tree_and_basic(setup):
    box = query_batch(setup.domain, 0.05, 1, seed=5)[0]
    tree_cost = measure_range(setup, box, "tree")
    basic_cost = measure_range(setup, box, "basic")
    assert tree_cost.queries == basic_cost.queries == 1
    assert tree_cost.num_results == basic_cost.num_results
    assert tree_cost.vo_bytes <= basic_cost.vo_bytes
    assert tree_cost.sp_seconds > 0 and tree_cost.user_seconds > 0


def test_measure_join(setup):
    orders, lineitem = TpchGenerator(setup.config).orders_lineitem_join(setup.workload)
    tree_r = setup.owner.build_tree(orders)
    tree_s = setup.owner.build_tree(lineitem)
    box = query_batch(orders.domain, 0.05, 1, seed=5)[0]
    tree_cost = measure_join(setup, tree_r, tree_s, box, "tree")
    basic_cost = measure_join(setup, tree_r, tree_s, box, "basic")
    assert tree_cost.num_results == basic_cost.num_results
    assert tree_cost.vo_bytes <= basic_cost.vo_bytes


def test_hierarchical_setup_end_to_end():
    setup = build_setup(shape=(8, 4, 4), hierarchical=True, seed=3)
    missing = setup.missing_roles()
    assert missing is not None
    full = setup.owner.universe.missing_roles(setup.user_roles)
    assert len(missing) <= len(full)
    box = query_batch(setup.domain, 0.1, 1, seed=1)[0]
    cost = measure_range(setup, box, "tree")
    assert cost.queries == 1


def test_average_costs():
    a = QueryCost(sp_seconds=1, user_seconds=2, vo_bytes=100, queries=1)
    b = QueryCost(sp_seconds=3, user_seconds=4, vo_bytes=300, queries=1)
    avg = average_costs([a, b])
    assert avg.sp_seconds == 2
    assert avg.user_seconds == 3
    assert avg.vo_bytes == 200
    assert avg.queries == 2


def test_report_rendering():
    result = ExperimentResult("Table X", "demo", ["a", "b"], notes="n")
    result.add_row(1, 2.34567)
    result.add_row(10, 0.00012)
    text = result.render()
    assert "Table X" in text and "demo" in text
    assert "2.35" in text  # rounded to 2 decimals
    assert "note: n" in text


def test_unit_helpers():
    assert millis(1.5) == 1500
    assert kib(2048) == 2.0


def test_experiments_run_small():
    """Smoke-run each experiment driver with minimal parameters."""
    from repro.bench import experiments as X

    r = X.run_table1(scales=(0.1, 3), shape=(8, 4, 4))
    assert len(r.rows) == 2
    measured = r.headers.index("signatures (KB)")
    lower = r.headers.index("predicted sig lower (KB)")
    upper = r.headers.index("predicted sig upper (KB)")
    for row in r.rows:
        assert row[lower] <= row[measured] <= row[upper], row
    r = X.run_table2(policy_lengths=(6,), predicate_lengths=(10,), repeats=1)
    assert len(r.rows) == 1
    r = X.run_fig13(thread_counts=(1, 4), num_jobs=3, backend="simulated")
    assert len(r.rows) == 2
    r = X.run_fig15(fractions=(0.01,), queries_per_point=1)
    assert len(r.rows) == 2
