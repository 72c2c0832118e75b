"""Plan execution: operators, joins, aggregation, cardinality labels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.plans import Aggregate, Filter, Join, Project, Scan
from repro.engine.schema import ColumnType, Schema
from repro.engine.table import Table
from repro.errors import PlanError, SchemaError


@pytest.fixture
def executor(orders_catalog):
    return Executor(orders_catalog)


class TestScanFilterProject:
    def test_scan_returns_all(self, executor, orders_catalog):
        result = executor.execute(Scan("orders"))
        assert result.table.row_count == orders_catalog.row_count("orders")

    def test_unknown_table(self, executor):
        with pytest.raises(SchemaError):
            executor.execute(Scan("nope"))

    def test_filter_matches_numpy(self, executor, orders_catalog):
        amounts = np.asarray(orders_catalog.get("orders").column("amount"))
        result = executor.execute(Filter(Scan("orders"), col("amount") > 150.0))
        assert result.table.row_count == int((amounts > 150.0).sum())

    def test_project_selects_columns(self, executor):
        result = executor.execute(Project(Scan("orders"), ["amount"]))
        assert result.table.schema.names == ["amount"]

    def test_project_requires_columns(self):
        with pytest.raises(PlanError):
            Project(Scan("orders"), [])


class TestJoins:
    def test_hash_and_nl_agree(self, executor, orders_catalog):
        small = orders_catalog.get("orders").select_rows(np.arange(80))
        small.name = "orders_small"
        orders_catalog.register(small)
        hash_result = executor.execute(
            Join(Scan("orders_small"), Scan("customers"), "cid", "cid", "hash")
        )
        nl_result = executor.execute(
            Join(Scan("orders_small"), Scan("customers"), "cid", "cid", "nl")
        )
        # Same rows in every column; the order differs (hash probes with
        # the larger side, customers; nested loops run orders_small outermost).
        assert hash_result.table.schema == nl_result.table.schema
        assert hash_result.table.row_count == 80
        assert sorted(hash_result.table.rows()) == sorted(nl_result.table.rows())

    def test_nl_costs_more_work(self, executor, orders_catalog):
        small = orders_catalog.get("orders").select_rows(np.arange(80))
        small.name = "orders_small2"
        orders_catalog.register(small)
        hash_result = executor.execute(
            Join(Scan("orders_small2"), Scan("customers"), "cid", "cid", "hash")
        )
        nl_result = executor.execute(
            Join(Scan("orders_small2"), Scan("customers"), "cid", "cid", "nl")
        )
        assert nl_result.work > hash_result.work

    def test_every_order_matches_one_customer(self, executor, orders_catalog):
        result = executor.execute(
            Join(Scan("orders"), Scan("customers"), "cid", "cid")
        )
        assert result.table.row_count == orders_catalog.row_count("orders")

    def test_join_output_schema_disambiguated(self, executor):
        result = executor.execute(
            Join(Scan("orders"), Scan("customers"), "cid", "cid")
        )
        names = result.table.schema.names
        assert "cid" in names and any(n.endswith("_cid") for n in names)


def _ref_key(column, i):
    value = column[i]
    return float(value) if isinstance(value, (int, float, np.integer, np.floating)) else value


def _reference_join(method, left_keys, right_keys):
    """The row-at-a-time joins the executor used before its match kernel:
    a dict hash join (build on the smaller side, ties on right) and a
    nested double loop. Returns (left_idx, right_idx, work)."""
    n_left, n_right = len(left_keys), len(right_keys)
    left_idx, right_idx = [], []
    if method == "nl":
        for i in range(n_left):
            ki = _ref_key(left_keys, i)
            for j in range(n_right):
                if ki == _ref_key(right_keys, j):
                    left_idx.append(i)
                    right_idx.append(j)
        return left_idx, right_idx, float(n_left * max(1, n_right))
    build_is_right = n_right <= n_left
    build, probe = (right_keys, left_keys) if build_is_right else (left_keys, right_keys)
    ht = {}
    for i in range(len(build)):
        ht.setdefault(_ref_key(build, i), []).append(i)
    probe_idx, build_idx = [], []
    for i in range(len(probe)):
        for j in ht.get(_ref_key(probe, i), ()):
            probe_idx.append(i)
            build_idx.append(j)
    work = float(n_left + n_right + len(probe_idx))
    if build_is_right:
        return probe_idx, build_idx, work
    return build_idx, probe_idx, work


_KEY_POOLS = {
    ColumnType.INT: st.sampled_from([-2, -1, 0, 1, 2, 3, 2**53, 2**53 + 1]),
    ColumnType.FLOAT: st.sampled_from(
        [float("nan"), 0.0, -0.0, 1.0, 1.5, -2.0, 3.0, float("inf"), float(2**53)]
    ),
    ColumnType.STRING: st.sampled_from(["a", "b", "", "a\x00", "1.0", "nan"]),
}

_key_columns = st.sampled_from(list(_KEY_POOLS)).flatmap(
    lambda ctype: st.tuples(st.just(ctype), st.lists(_KEY_POOLS[ctype], max_size=9))
)
# Duplicate-free by repr, so that the kernel's unique-inner path runs; -0.0
# beside 0.0 and 2**53 beside 2**53 + 1 still collide as float64 keys. The
# column type is drawn once per example (``st.shared``), so two unique sides
# never pair a string column with a numeric one, which would match nothing.
_unique_key_columns = st.shared(st.sampled_from(list(_KEY_POOLS)), key="unique-type").flatmap(
    lambda ctype: st.tuples(
        st.just(ctype), st.lists(_KEY_POOLS[ctype], min_size=1, max_size=6, unique_by=repr)
    )
)
# Three to one: about two thirds of the kernel calls then take the unique
# path, and doubled examples keep the duplicate-key draws near their old count.
_join_sides = st.one_of(*[_unique_key_columns] * 3, _key_columns)


def _keyed_table(name, id_col, ctype, keys):
    return Table.from_columns(
        name,
        Schema.of((id_col, ColumnType.INT), ("k", ctype)),
        {id_col: np.arange(len(keys)), "k": keys},
    )


class TestJoinOracle:
    """The match kernel emits exactly the rows, in exactly the order, and
    charges exactly the work of the row-at-a-time joins it replaced."""

    @pytest.mark.parametrize("method", ["hash", "nl"])
    @settings(max_examples=300, deadline=None)
    @given(left=_join_sides, right=_join_sides)
    # Build-side orientation: left smaller, right smaller, equal; an empty side.
    @example(left=(ColumnType.INT, [1, 2]), right=(ColumnType.INT, [2, 1, 2, 1]))
    @example(left=(ColumnType.INT, [2, 1, 2, 1]), right=(ColumnType.FLOAT, [1.0, 2.0]))
    @example(left=(ColumnType.FLOAT, [0.0, -0.0]), right=(ColumnType.FLOAT, [-0.0, 0.0]))
    @example(left=(ColumnType.FLOAT, [float("nan"), 1.0]), right=(ColumnType.FLOAT, [float("nan")]))
    @example(left=(ColumnType.STRING, ["a", "b", "a"]), right=(ColumnType.STRING, ["a", "a"]))
    @example(left=(ColumnType.STRING, ["1.0"]), right=(ColumnType.FLOAT, [1.0]))
    @example(left=(ColumnType.INT, []), right=(ColumnType.INT, [1, 1]))
    @example(left=(ColumnType.STRING, ["a"]), right=(ColumnType.STRING, []))
    # Unique build sides: -0.0 beside 0.0, a lone NaN, ±inf, one row, empty.
    @example(left=(ColumnType.FLOAT, [0.0, 1.0, -0.0, 2.0]),
             right=(ColumnType.FLOAT, [-0.0, 3.0, 0.0]))
    @example(left=(ColumnType.FLOAT, [1.0, float("nan"), 3.0]),
             right=(ColumnType.FLOAT, [3.0, float("nan")]))
    @example(left=(ColumnType.FLOAT, [float("inf"), -1.0, float("-inf"), float("inf")]),
             right=(ColumnType.FLOAT, [float("-inf"), 0.0, float("inf")]))
    @example(left=(ColumnType.INT, [2, 1, 2]), right=(ColumnType.INT, [2]))
    @example(left=(ColumnType.FLOAT, [1.0, 2.0]), right=(ColumnType.FLOAT, []))
    # A unique side joined to a duplicated one, built on either side.
    @example(left=(ColumnType.INT, [1, 2, 3]), right=(ColumnType.INT, [3, 3, 1, 1, 2]))
    @example(left=(ColumnType.INT, [3, 3, 1, 1, 2]), right=(ColumnType.INT, [1, 2, 3]))
    def test_rows_order_and_work_match_reference(self, method, left, right):
        catalog = Catalog()
        left_table = _keyed_table("l", "lid", *left)
        right_table = _keyed_table("r", "rid", *right)
        catalog.register(left_table)
        catalog.register(right_table)
        result = Executor(catalog).execute(Join(Scan("l"), Scan("r"), "k", "k", method))

        left_keys, right_keys = left_table.column("k"), right_table.column("k")
        left_idx, right_idx, work = _reference_join(method, left_keys, right_keys)
        out = result.table
        assert out.schema.names == ["lid", "k", "rid", "r_k"]
        assert out.column("lid").tolist() == left_idx
        assert out.column("rid").tolist() == right_idx
        # repr tells -0.0 from 0.0, which == does not.
        assert list(map(repr, out.column("k"))) == [repr(left_keys[i]) for i in left_idx]
        assert list(map(repr, out.column("r_k"))) == [repr(right_keys[j]) for j in right_idx]
        # The two scans below the join charge one unit per row.
        assert result.work == len(left_keys) + len(right_keys) + work
        assert result.cardinalities[f"Join[k=k;{method}](Scan[l],Scan[r])"] == len(left_idx)


class TestAggregates:
    def test_count(self, executor, orders_catalog):
        result = executor.execute(Aggregate(Scan("orders"), "count"))
        assert result.scalar == orders_catalog.row_count("orders")

    def test_avg_matches_numpy(self, executor, orders_catalog):
        amounts = np.asarray(orders_catalog.get("orders").column("amount"))
        result = executor.execute(Aggregate(Scan("orders"), "avg", "amount"))
        assert result.scalar == pytest.approx(float(amounts.mean()))

    def test_min_max_sum(self, executor, orders_catalog):
        amounts = np.asarray(orders_catalog.get("orders").column("amount"))
        for agg, expected in (
            ("min", amounts.min()),
            ("max", amounts.max()),
            ("sum", amounts.sum()),
        ):
            result = executor.execute(Aggregate(Scan("orders"), agg, "amount"))
            assert result.scalar == pytest.approx(float(expected))

    def test_empty_input_aggregates_zero(self, executor):
        plan = Aggregate(Filter(Scan("orders"), col("amount") > 1e12), "sum", "amount")
        assert executor.execute(plan).scalar == 0.0

    def test_unknown_agg_rejected(self):
        with pytest.raises(PlanError):
            Aggregate(Scan("orders"), "median", "amount")


class TestCardinalityLabels:
    def test_every_node_labeled(self, executor):
        plan = Aggregate(
            Join(
                Filter(Scan("orders"), col("amount") > 100.0),
                Scan("customers"),
                "cid",
                "cid",
            ),
            "count",
        )
        result = executor.execute(plan)
        # Root + join + filter + 2 scans = 5 nodes labeled.
        assert len(result.cardinalities) == 5
        assert result.cardinalities[plan.canonical()] == 1

    def test_filter_label_matches_output(self, executor):
        plan = Filter(Scan("orders"), col("amount") > 100.0)
        result = executor.execute(plan)
        assert result.cardinalities[plan.canonical()] == result.table.row_count


class TestSort:
    def test_sort_orders_rows(self, executor, orders_catalog):
        from repro.engine.plans import Sort

        result = executor.execute(Sort(Scan("orders"), "amount"))
        amounts = np.asarray(result.table.column("amount"))
        assert (np.diff(amounts) >= 0).all()
        assert result.table.row_count == orders_catalog.row_count("orders")

    def test_sort_string_column_rejected(self, executor, orders_catalog):
        from repro.engine.plans import Sort
        from repro.engine.schema import ColumnType, Schema
        from repro.engine.table import Table

        names = Table.from_columns(
            "names",
            Schema.of(("tag", ColumnType.STRING)),
            {"tag": ["b", "a"]},
        )
        orders_catalog.register(names)
        with pytest.raises(PlanError):
            executor.execute(Sort(Scan("names"), "tag"))

    def test_sort_empty_input(self, executor):
        from repro.engine.expressions import col
        from repro.engine.plans import Sort

        plan = Sort(Filter(Scan("orders"), col("amount") > 1e12), "amount")
        result = executor.execute(plan)
        assert result.table.row_count == 0

    def test_learned_sorter_charges_its_work(self, orders_catalog):
        from repro.engine.executor import Executor
        from repro.engine.plans import Sort
        from repro.learned.sorter import LearnedSorter

        plan = Sort(Scan("orders"), "amount")
        classic = Executor(orders_catalog).execute(plan)
        learned = Executor(
            orders_catalog, learned_sorter=LearnedSorter()
        ).execute(plan)
        # Same rows either way; in-distribution learned sort does less work.
        assert learned.table.row_count == classic.table.row_count
        assert learned.work < classic.work
