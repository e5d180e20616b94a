import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import treeselect
from treeselect import (Dataset, DesignSpec, MarginSpec, bayes_predict,
                        bayes_risk, empirical_risk, eta, generate,
                        load_dataset, loss_estimate, margin_holds, margin_mass,
                        save_dataset, stump)
from treeselect.designs import BLOCK_CELLS, _normal_cdf
from treeselect.experiment import DEFAULT_NOISE_GRIDS
from treeselect.tree import Internal, Leaf, TreeClassifier

from conftest import finite_floats, tied_datasets


def test_generate_shape():
    d = generate(DesignSpec(1, 100, 5, 0.1, seed=7))
    assert d.X.shape == (100, 5)
    assert d.y.shape == (100,)


def test_generate_deterministic():
    spec = DesignSpec(1, 100, 5, 0.1, seed=7)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)


def test_generate_different_seeds_differ():
    a = generate(DesignSpec(1, 100, 5, 0.1, seed=7))
    b = generate(DesignSpec(1, 100, 5, 0.1, seed=8))
    assert not np.array_equal(a.X, b.X)


def test_design1_conditional_frequency():
    d = generate(DesignSpec(1, 10 ** 5, 2, 0.1, seed=7))
    mask = (d.X[:, 0] > 0) & (d.X[:, 1] > 0)
    assert abs(d.y[mask].mean() - 0.1) < 0.01


@pytest.mark.parametrize("spec,kwargs", [
    (dict(design_id=1, n=10, p=5, noise=0.6), {}),      # q out of range
    (dict(design_id=2, n=10, p=5, noise=-1.0), {}),     # bad variance
    (dict(design_id=4, n=10, p=2, noise=0.2), {}),      # design 4 needs p >= 3
    (dict(design_id=5, n=10, p=5, noise=0.2), {}),
    (dict(design_id=1, n=0, p=5, noise=0.1), {}),
    (dict(design_id=1, n=10.5, p=5, noise=0.3), {}),   # non-integral sizes
    (dict(design_id=1, n=10, p=5.0, noise=0.3), {}),
    (dict(design_id=1.0, n=10, p=5, noise=0.3), {}),
    (dict(design_id=True, n=10, p=5, noise=0.3), {}),
    (dict(design_id=1, n=10, p=5, noise=0.3), dict(seed=1.5)),
    (dict(design_id=2, n=10, p=5, noise=math.inf), {}),  # non-finite noise
    (dict(design_id=3, n=10, p=5, noise=math.nan), {}),
    (dict(design_id=4, n=10, p=5, noise=math.inf), {}),
])
def test_invalid_specs(spec, kwargs):
    with pytest.raises(ValueError):
        DesignSpec(**spec, **kwargs)


def test_eta_design1_quadrant():
    spec = DesignSpec(1, 10, 5, 0.1)
    assert eta(spec, [0.5, 0.5, 0.0, 0.0, 0.0]) == 0.1
    assert eta(spec, [-0.5, 0.5, 0.0, 0.0, 0.0]) == 0.9


def test_eta_design2_midpoint():
    spec = DesignSpec(2, 10, 3, 1.0)
    assert eta(spec, [0.5, 0.0, 0.0]) == pytest.approx(0.5)


def test_eta_design4_sphere():
    spec = DesignSpec(4, 10, 3, 0.2)
    assert eta(spec, [2.0, 0.0, 0.0]) == 1.0
    assert eta(spec, [0.1, 0.1, 0.1]) == 0.0


def test_eta_dimension_mismatch():
    with pytest.raises(ValueError):
        eta(DesignSpec(1, 10, 5, 0.1), [0.5, 0.5])


def test_eta_range_random_points():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((200, 5))
    for did, noise in [(1, 0.2), (2, 1.0), (3, 0.5), (4, 0.2)]:
        vals = eta(DesignSpec(did, 10, 5, noise), pts)
        assert np.all(vals >= 0) and np.all(vals <= 1)


def test_bayes_risk_values():
    assert bayes_risk(DesignSpec(1, 10, 5, 0.1)) == 0.1
    assert bayes_risk(DesignSpec(2, 10, 5, 1.0)) == pytest.approx(0.30854, abs=1e-5)
    assert bayes_risk(DesignSpec(4, 10, 5, 0.2)) == 0.0


@pytest.mark.parametrize("did,noise", [(1, 0.2), (2, 1.0), (3, 2.0), (4, 0.2)])
def test_bayes_risk_matches_monte_carlo(did, noise):
    spec = DesignSpec(did, 10 ** 5, 5, noise, seed=11)
    d = generate(spec)
    mc = float(np.mean(bayes_predict(spec, d.X) != d.y))
    r = bayes_risk(spec)
    se = math.sqrt(max(r * (1 - r), 1e-12) / 10 ** 5)
    assert abs(mc - r) <= 3 * se + 1e-9


def test_normal_cdf_is_bit_exact_with_ndtr():
    rng = np.random.default_rng(2011)
    r = 1.0 / math.sqrt(2.0)
    edges = [0.0, -0.0, 1.0, -1.0, r, -r, 8.0 / r, -8.0 / r, 38.5, -38.5]
    xs = np.concatenate([edges, rng.normal(0.0, 3.0, 40_000),
                         rng.uniform(-40.0, 40.0, 40_000), rng.uniform(-1.5, 1.5, 20_000)])
    got = np.array([_normal_cdf(float(x)) for x in xs])
    want = ndtr(xs)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# repr strings of the values scipy.stats.norm gave before the Cephes port
_PINNED_T = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.99)
_PINNED = {
    (2, 0.5): ("0.23975006109347674", [
        "0.0", "0.008787972256779242", "0.08802508845795029", "0.22202027862121002",
        "0.45888346264352486", "0.7295851571773189", "0.9987963143457361"]),
    (2, 1.0): ("0.3085375387259869", [
        "0.0", "0.014082378347444607", "0.1405901245082257", "0.3482687662737894",
        "0.6703308815162023", "0.9186744473660564", "0.9999991762689632"]),
    (2, 2.0): ("0.36183680491588155", [
        "0.0", "0.021198515948542634", "0.2102412785447566", "0.5029147728631658",
        "0.8567077601289516", "0.9908162615094909", "0.9999999999995043"]),
    (3, 0.5): ("0.15865525393145707", [
        "0.0", "0.004839575813071956", "0.04855635170941616", "0.12359618733428568",
        "0.2654510339682621", "0.46496161038746364", "0.9500524051450366"]),
    (3, 1.0): ("0.23975006109347674", [
        "0.0", "0.008787972256779242", "0.08802508845795029", "0.22202027862121002",
        "0.45888346264352486", "0.7295851571773189", "0.9987963143457361"]),
    (3, 2.0): ("0.30853753872598694", [
        "0.0", "0.014082378347444635", "0.14059012450822567", "0.34826876627378933",
        "0.6703308815162022", "0.9186744473660564", "0.9999991762689632"]),
}


@pytest.mark.parametrize("did,noise", sorted(_PINNED))
def test_bayes_risk_and_margin_mass_are_pinned(did, noise):
    assert noise in DEFAULT_NOISE_GRIDS[did]
    spec = DesignSpec(did, 10, 5, noise)
    risk, masses = _PINNED[did, noise]
    assert repr(bayes_risk(spec)) == risk
    assert [repr(margin_mass(spec, t)) for t in _PINNED_T] == masses


def test_import_loads_no_scipy():
    src = str(Path(treeselect.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, treeselect; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_margin_mass_design1():
    spec = DesignSpec(1, 10, 5, 0.3)
    assert margin_mass(spec, 0.3) == 0.0
    assert margin_mass(spec, 0.5) == 1.0


def test_margin_mass_design2_positive():
    val = margin_mass(DesignSpec(2, 10, 5, 1.0), 0.1)
    assert 0.0 < val < 1.0


def test_margin_mass_design2_matches_monte_carlo():
    spec = DesignSpec(2, 10 ** 5, 2, 1.0, seed=3)
    d = generate(spec)
    e = eta(spec, d.X)
    for t in (0.1, 0.4, 0.8):
        mc = float(np.mean(np.abs(2 * e - 1) <= t))
        assert abs(mc - margin_mass(spec, t)) < 0.01


def test_margin_mass_monotone_and_one_at_t1():
    for did, noise in [(1, 0.2), (2, 0.5), (3, 2.0), (4, 0.2)]:
        spec = DesignSpec(did, 10, 5, noise)
        grid = np.linspace(0, 1, 21)
        vals = [margin_mass(spec, float(t)) for t in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0


def test_design1_satisfies_ma2():
    spec = DesignSpec(1, 10, 5, 0.1)
    for t in (0.1, 0.5, 0.79):
        assert margin_mass(spec, t) == 0.0  # gap |2q-1| = 0.8
    assert margin_holds(spec, MarginSpec("MA2", h=0.5))


def test_designs_2_3_fail_ma2():
    for did in (2, 3):
        spec = DesignSpec(did, 10, 5, 1.0)
        assert all(margin_mass(spec, t) > 0 for t in (0.01, 0.1, 0.5))
        assert not margin_holds(spec, MarginSpec("MA2", h=0.1))


def test_csv_round_trip(tmp_path):
    d = generate(DesignSpec(3, 25, 4, 1.0, seed=5))
    path = tmp_path / "data.csv"
    save_dataset(d, path)
    back = load_dataset(path)
    assert np.array_equal(d.X, back.X)
    assert np.array_equal(d.y, back.y)


@st.composite
def _edge_datasets(draw):
    n, p = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    X = draw(st.lists(st.lists(finite_floats, min_size=p, max_size=p), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return Dataset(np.array(X), np.array(y))


@settings(max_examples=60, deadline=None)
@given(_edge_datasets())
def test_csv_round_trip_is_exact(d):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_dataset(d, path)
        back = load_dataset(path)
    assert back.X.tobytes() == d.X.tobytes()
    assert back.y.tolist() == d.y.tolist()


def test_csv_requires_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,label\n1.0,2.0,0\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    X = np.zeros((3, 2))
    X[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        Dataset(X, np.array([0, 1, 0]))


def test_dataset_accepts_values_whose_sum_overflows():
    X = np.full((3, 2), 1e308)
    assert Dataset(X, np.array([0, 1, 0])).n == 3


@pytest.mark.parametrize("labels", [[0.7, 1.0], [0.0, 2.0], [-1, 1], ["0", "1"]])
def test_dataset_rejects_labels_other_than_0_or_1(labels):
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 2)), labels)


@pytest.mark.parametrize("labels", [[0, 1], [False, True], np.array([1, 0], dtype=np.uint8)])
def test_dataset_accepts_integer_and_bool_labels(labels):
    d = Dataset(np.zeros((2, 2)), labels)
    assert d.y.dtype == np.int64
    assert d.y.tolist() == [int(v) for v in labels]


def _tied_dataset(seed, n=40, p=3):
    rng = np.random.default_rng(seed)
    return Dataset(rng.integers(-2, 3, size=(n, p)).astype(float),
                   rng.integers(0, 2, size=n))


def _stable_argsort(X):
    return np.argsort(X.T, axis=1, kind="stable")


@pytest.mark.parametrize("seed", range(3))
def test_dataset_order_is_a_stable_argsort(seed):
    d = _tied_dataset(seed)
    assert d.order.shape == (d.p, d.n)
    assert np.array_equal(d.order, _stable_argsort(d.X))
    assert d.order is d.order  # computed once


@settings(max_examples=100, deadline=None)
@given(tied_datasets())
def test_presort_equals_the_stable_argsort_on_tied_data(d):
    assert np.array_equal(d.order, _stable_argsort(d.X))


def test_presort_reads_signed_zeros_as_equal_values():
    # -0.0 == 0.0, so a column holding both is tied and sorted stably; the
    # default sort alone orders this column's equal values otherwise
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.choice([-0.0, 0.0, 1.0, -1.0], size=200),
                         rng.normal(size=200)])
    d = Dataset(X, rng.integers(0, 2, size=200))
    assert not np.array_equal(np.argsort(X.T, axis=1), _stable_argsort(X))
    assert np.array_equal(d.order, _stable_argsort(X))
    assert d.tied.tolist() == [0]


@pytest.mark.parametrize("seed", range(3))
def test_subset_inherits_order_for_increasing_rows(seed):
    d = _tied_dataset(seed)
    rows = np.flatnonzero(np.random.default_rng(seed + 10).random(d.n) < 0.6)
    d.order
    child = d.subset(rows)
    assert child._order is not None  # filtered from the parent, not sorted
    assert np.array_equal(child.order, _stable_argsort(d.X[rows]))


@settings(max_examples=100, deadline=None)
@given(tied_datasets(), st.randoms(use_true_random=False))
def test_inherited_subset_order_is_the_stable_argsort_on_tied_data(d, rnd):
    # a subset of a subset inherits too, as each CV fold of a fold would
    rows = np.array(sorted(rnd.sample(range(d.n), rnd.randint(1, d.n))))
    inner = np.array(sorted(rnd.sample(range(rows.size), rnd.randint(1, rows.size))))
    d.order
    child = d.subset(rows)
    grandchild = child.subset(inner)
    for got, X in ((child, d.X[rows]), (grandchild, d.X[rows[inner]])):
        assert got._order is not None  # filtered from the parent, not sorted
        assert got.order.dtype == d.order.dtype and not got.order.flags.writeable
        assert np.array_equal(got.order, _stable_argsort(X))


def test_subset_sorts_lazily_for_other_rows():
    d = _tied_dataset(0)
    d.order
    for rows in ([3, 1, 2], [1, 1, 2]):
        child = d.subset(rows)
        assert child._order is None
        assert np.array_equal(child.order, _stable_argsort(d.X[rows]))


@pytest.mark.parametrize("rows", [[3, 1, 2], [1, 1, 2], [5], np.arange(40) % 2 == 0,
                                  slice(10, 20), np.arange(39, -1, -1)])
def test_subset_equals_a_dataset_of_the_rows(rows):
    d = _tied_dataset(1)
    child = d.subset(rows)
    ref = Dataset(d.X[rows], d.y[rows])
    for got, want in ((child.X, ref.X), (child.y, ref.y), (child.order, ref.order)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("rows", [[], np.zeros(40, dtype=bool), slice(5, 5)])
def test_subset_of_no_rows_is_rejected(rows):
    with pytest.raises(ValueError, match="at least one observation"):
        _tied_dataset(1).subset(rows)


def test_dataset_equality_and_hash_are_by_identity():
    d = _tied_dataset(0)
    twin = Dataset(d.X, d.y)
    assert d == d
    assert d != twin
    assert len({d, d, d.subset([0])}) == 2
    assert hash(d) == hash(d)


def test_dataset_order_is_read_only():
    d = _tied_dataset(0)
    with pytest.raises(ValueError):
        d.order[0, 0] = 1
    with pytest.raises(ValueError):
        d.subset(np.arange(5)).order[0, 0] = 1


@pytest.mark.parametrize("body,message", [
    ("1.0,2.0,0\n3.0,4.0,0.7\n", "row 2: label '0.7'"),  # label not 0 or 1
    ("1.0,2.0,0\n3.0,4.0\n", "row 2 has 2 cells"),      # short row
    ("1.0,2.0,0,9.0\n", "row 1 has 4 cells"),           # extra cell
])
def test_csv_rejects_malformed_rows(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n" + body)
    with pytest.raises(ValueError, match=message):
        load_dataset(path)


@pytest.mark.parametrize("row,message", [
    ("1_0,0.5,1", "row 1, column 'x1': '1_0' is not a finite decimal number"),
    ("\u0661,0.2,0", "row 1, column 'x1': '\u0661' is not a finite decimal number"),
    ("0.5,1,0_0", "row 1, column 'y': '0_0' is not a finite decimal number"),
    ("0.5,1,\uff11", "row 1, column 'y': '\uff11' is not a finite decimal number"),
    ("0.5,\t1,0", "row 1, column 'x2': '\\t1' is not a finite decimal number"),
    ("0.5,nan,0", "row 1, column 'x2': 'nan' is not a finite decimal number"),
    ("0.5,1e999,0", "row 1, column 'x2': '1e999' is not a finite decimal number"),
    ("0.5,1,2", "row 1: label '2' in column 'y' is not 0 or 1"),
])
def test_csv_cells_are_strict_decimals(tmp_path, row, message):
    # float() reads every one of these cells
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,y\n" + row + "\n")
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == message


def test_csv_cells_may_carry_ascii_spaces_and_decimal_labels(tmp_path):
    path = tmp_path / "ok.csv"
    path.write_text("x1,x2,y\n 3.0 ,0.1,1.0\n-2,+.5e1, 0 \n")
    d = load_dataset(path)
    assert d.X.tolist() == [[3.0, 0.1], [-2.0, 5.0]] and d.y.tolist() == [1, 0]


@pytest.mark.parametrize("header,name", [("x1,y,y", "'y'"), ("x1,x1,y", "'x1'"),
                                         ("x1, x1 ,y", "'x1'")])
def test_csv_rejects_repeated_header_names(tmp_path, header, name):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1.0,0,1\n")
    with pytest.raises(ValueError, match=f"repeated header name.*{name}"):
        load_dataset(path)


def _reference_generate(spec):
    """The draw as one (n, p) matrix, kept as the independent reference
    for the streamed one."""
    rng = np.random.default_rng(spec.seed)
    n, p = spec.n, spec.p
    if spec.design_id == 1:
        q = spec.noise
        X = rng.standard_normal((n, p))
        in_quadrant = (X[:, 0] > 0) & (X[:, 1] > 0)
        prob = np.where(in_quadrant, q, 1.0 - q)
        y = (rng.random(n) < prob).astype(np.int64)
    elif spec.design_id == 2:
        sigma = math.sqrt(spec.noise)
        y = rng.integers(0, 2, size=n)
        X = rng.standard_normal((n, p))
        X[:, 0] = y + sigma * rng.standard_normal(n)
    elif spec.design_id == 3:
        sigma = math.sqrt(spec.noise)
        y = rng.integers(0, 2, size=n)
        X = rng.standard_normal((n, p))
        X[:, 0] = y + sigma * rng.standard_normal(n)
        X[:, 1] = y + sigma * rng.standard_normal(n)
    else:
        sigma = math.sqrt(spec.noise)
        Z = rng.standard_normal((n, 3))
        base = Z.sum(axis=1) / math.sqrt(3.0)
        X = np.empty((n, p))
        X[:, :3] = Z
        if p > 3:
            X[:, 3:] = base[:, None] + sigma * rng.standard_normal((n, p - 3))
        y = ((Z ** 2).sum(axis=1) > 2.5).astype(np.int64)
    return Dataset(X, y)


NOISE = {1: 0.3, 2: 1.0, 3: 2.0, 4: 0.2}


def _stream_cases():
    """(design, n, p): n at and around a block boundary, p from the
    narrowest the design allows to wider than one block."""
    for d in (1, 2, 3, 4):
        for p in (3 if d == 4 else 2, 30, 1000, BLOCK_CELLS + 5):
            rows = max(1, BLOCK_CELLS // p)
            for n in sorted({1, rows - 1, rows, rows + 1, 3 * rows + 7} - {0}):
                yield d, n, p


@pytest.mark.parametrize("d,n,p", list(_stream_cases()))
def test_streamed_draw_equals_full_draw(d, n, p):
    spec = DesignSpec(d, n, p, NOISE[d], seed=1000 * d + n + p)
    full = _reference_generate(spec)
    streamed = generate(spec)
    assert np.array_equal(streamed.X, full.X)
    assert np.array_equal(streamed.y, full.y)
    assert np.array_equal(generate(spec, columns=range(p)).X, full.X)
    rng = np.random.default_rng(n + p)
    for _ in range(3):
        cols = np.sort(rng.choice(p, size=rng.integers(2, min(p, 6) + 1), replace=False))
        kept = generate(spec, columns=cols)
        assert np.array_equal(kept.X, full.X[:, cols])
        assert np.array_equal(kept.y, full.y)


@pytest.mark.parametrize("columns", [[1, 0], [0, 0, 1], [-1, 0], [0, 5], [0.0, 1.0],
                                     [[0, 1]], [0], [], [True, True]])
def test_generate_rejects_bad_columns(columns):
    with pytest.raises(ValueError):
        generate(DesignSpec(1, 10, 5, 0.3), columns=columns)


def _random_tree(rng, p, leaves):
    """A random tree with the given leaf count whose first split is on x_p."""
    nodes = [Leaf(int(rng.integers(2)))]
    for k in range(leaves - 1):
        i = int(rng.choice([j for j, nd in enumerate(nodes) if isinstance(nd, Leaf)]))
        var = p if k == 0 else int(rng.integers(1, p + 1))
        nodes[i] = Internal(var, float(rng.normal(scale=0.7)), len(nodes), len(nodes) + 1)
        nodes += [Leaf(int(rng.integers(2))), Leaf(int(rng.integers(2)))]
    return TreeClassifier(tuple(nodes))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [3, 30, 1000])
def test_loss_estimate_equals_risk_on_the_full_draw(d, p):
    rng = np.random.default_rng(10 * d + p)
    spec = DesignSpec(d, 50, p, NOISE[d], seed=d)
    for leaves in (1, 1, 2, 3, 6, 12):
        tree = _random_tree(rng, p, leaves)
        m, seed = int(rng.integers(1, 3000)), int(rng.integers(2 ** 32))
        risk = empirical_risk(tree, _reference_generate(replace(spec, n=m, seed=seed)))
        assert loss_estimate(tree, spec, m, seed) == (risk, risk - bayes_risk(spec))


def test_loss_estimate_rejects_a_tree_wider_than_the_design():
    with pytest.raises(ValueError, match="p = 5"):
        loss_estimate(stump(6, 0.0, 0, 1), DesignSpec(1, 10, 5, 0.3), 100, 0)


def test_loss_estimate_memory_does_not_grow_with_p():
    # the full 10,000 x 1000 draw alone would take 80 MB
    tracemalloc.start()
    try:
        loss_estimate(stump(900, 0.0, 0, 1), DesignSpec(1, 50, 1000, 0.3), 10_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
