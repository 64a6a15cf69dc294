"""Learning stack: models, metrics, tuning, registry, pilot records."""

import csv
import re

import numpy as np
import pytest

import semcloud.learning.models as models
from semcloud.datalog import MissingExternal, SignatureMismatch
from semcloud.learning.models import _KNN_BLOCK_ELEMENTS, _ordered_sum
from semcloud.learning import (
    CONFIGURATION_TARGETS,
    ESTIMATION_TARGETS,
    TIME_FEATURES,
    DimensionMismatch,
    Divergence,
    KNNModel,
    LearningError,
    MLPModel,
    PilotRunRecord,
    PolyRModel,
    Standardizer,
    fit_knn,
    fit_method,
    fit_mlp,
    fit_polyr,
    grid_search,
    load_model,
    min_train_fraction_sweep,
    mlp_loss_and_gradients,
    model_from_dict,
    model_to_dict,
    nmae,
    predict_knn,
    predict_method,
    predict_mlp,
    predict_polyr,
    read_pilot_csv,
    register_externals,
    save_model,
    time_model_frame,
    train_test_split,
    training_frame,
    write_pilot_csv,
)

from oracle import per_row_knn, per_row_polyr


def make_pilot_record(**overrides):
    base = dict(
        pipeline="p1", no_records=1000.0, volume=10.0, chunk_size=1000.0,
        slice_size=1000.0, slice_time=0.5, prepare_time=1.0,
        slice_memory=20.0, prepare_memory=30.0, slice_storage=10.0,
        prepare_storage=13.0, store_storage=11.0,
        slice_memory_reservation=25.0, prepare_memory_reservation=35.0,
        storage_mode="fast", total_time=2.0, cpu_integral=4.0,
        kind="estimation")
    base.update(overrides)
    return PilotRunRecord(**base)


class TestNmae:
    def test_known_value(self):
        assert nmae([1.0, 3.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_perfect_prediction_is_zero(self):
        assert nmae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_scale_invariance(self):
        pred = np.array([1.1, 1.9, 3.2])
        truth = np.array([1.0, 2.0, 3.0])
        assert nmae(7.0 * pred, 7.0 * truth) == pytest.approx(nmae(pred, truth))

    def test_zero_mean_truth_rejected(self):
        with pytest.raises(LearningError):
            nmae([1.0, 1.0], [-1.0, 1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LearningError):
            nmae([1.0], [1.0, 2.0])


class TestPolyR:
    def test_exact_linear_fit(self):
        X = np.linspace(0.0, 10.0, 20).reshape(-1, 1)
        y = 2.0 * X[:, 0] + 1.0
        model = fit_polyr(X, y, degree=1)
        assert nmae(predict_polyr(model, X), y) < 1e-10

    def test_cubic_recovered_against_normal_equations(self):
        rng = np.random.RandomState(3)
        X = rng.uniform(-2.0, 2.0, size=(40, 1))
        y = 0.5 * X[:, 0] ** 3 - X[:, 0] + 2.0
        model = fit_polyr(X, y, degree=4)
        # independent oracle: solve the scaled normal equations directly
        scale = np.max(np.abs(X), axis=0)
        Xs = X / scale
        design = np.column_stack([np.ones(len(X))] +
                                 [Xs[:, 0] ** d for d in range(1, 5)])
        ref = np.linalg.solve(design.T @ design, design.T @ y)
        grid = np.linspace(-2.0, 2.0, 50).reshape(-1, 1)
        ref_pred = np.column_stack(
            [np.ones(len(grid))] +
            [(grid[:, 0] / scale[0]) ** d for d in range(1, 5)]) @ ref
        assert np.allclose(predict_polyr(model, grid), ref_pred, atol=1e-8)

    def test_constant_feature_hits_intercept(self):
        X = np.zeros((10, 1))
        y = np.full(10, 5.0)
        model = fit_polyr(X, y, degree=2)
        assert predict_polyr(model, X) == pytest.approx(np.full(10, 5.0))

    def test_rank_deficiency_is_flagged(self):
        X = np.ones((5, 2))  # duplicated constant features
        y = np.arange(5.0)
        model = fit_polyr(X, y, degree=3)
        assert model.rank_deficient

    def test_non_finite_input_rejected(self):
        with pytest.raises(LearningError):
            fit_polyr(np.array([[np.nan]]), np.array([1.0]), degree=1)

    def test_degree_zero_rejected(self):
        with pytest.raises(LearningError):
            fit_polyr(np.ones((3, 1)), np.ones(3), degree=0)

    def test_feature_count_checked_at_prediction(self):
        model = fit_polyr(np.ones((3, 1)), np.ones(3), degree=1)
        with pytest.raises(DimensionMismatch):
            predict_polyr(model, np.ones((2, 2)))

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_prediction_equals_the_per_row_oracle_bit_for_bit(self, degree):
        rng = np.random.RandomState(20 + degree)
        spread = rng.uniform(0.1, 100.0, size=4)
        X = rng.randn(60, 4) * spread
        model = fit_polyr(X, rng.randn(60), degree)
        queries = rng.randn(40, 4) * spread * 1.5
        for rows in (queries, queries[:1], queries[:0]):
            prediction = predict_polyr(model, rows)
            assert prediction.shape == (rows.shape[0],)
            assert prediction.tobytes() == per_row_polyr(model, rows).tobytes()


class TestKNN:
    def test_stored_point_is_exact(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 7.0, 9.0])
        model = fit_knn(X, y, k=2)
        assert predict_knn(model, X) == pytest.approx(y)

    def test_equidistant_neighbours_average(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([4.0, 8.0])
        model = fit_knn(X, y, k=2)
        assert predict_knn(model, np.array([[1.0]]))[0] == pytest.approx(6.0)

    def test_inverse_distance_weighting(self):
        X = np.array([[0.0], [3.0]])
        y = np.array([0.0, 3.0])
        model = fit_knn(X, y, k=2)
        # query at 1/3 of the gap: weights 2:1 toward the near sample
        xq = np.array([[1.0]])
        d_near, d_far = 1.0, 2.0
        expected = (y[0] / d_near + y[1] / d_far) / (1 / d_near + 1 / d_far)
        assert predict_knn(model, xq)[0] == pytest.approx(expected)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(LearningError):
            fit_knn(np.ones((3, 1)), np.ones(3), k=4)


class TestKNNBlocks:
    """The blocked predict_knn equals the per-row algorithm bit for bit."""

    @staticmethod
    def assert_bitwise(model, X):
        assert predict_knn(model, X).tobytes() == per_row_knn(model, X).tobytes()

    @pytest.mark.parametrize("features", [1, 2, 4, 6, 7, 8, 9, 130])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_random_data(self, features, k):
        rng = np.random.RandomState(features * 10 + k)
        X = rng.randn(80, features) * rng.uniform(0.1, 100.0, size=features)
        model = fit_knn(X, rng.randn(80), k=k)
        self.assert_bitwise(model, rng.randn(50, features) * X.std(axis=0))

    def test_exact_stored_points(self):
        rng = np.random.RandomState(1)
        X = rng.randn(40, 3)
        model = fit_knn(X, rng.randn(40), k=4)
        queries = np.vstack([X[::3], rng.randn(10, 3)])
        self.assert_bitwise(model, queries)
        assert np.array_equal(predict_knn(model, X[::3]), model.targets[::3])

    def test_tied_distances(self):
        # integer lattice samples and queries: many equal distances,
        # including ties at the k-th nearest
        rng = np.random.RandomState(2)
        X = rng.randint(0, 4, size=(60, 2)).astype(float)
        queries = rng.randint(0, 4, size=(40, 2)) + 0.5
        for k in (1, 2, 5, 11):
            self.assert_bitwise(fit_knn(X, rng.randn(60), k=k), queries)

    def test_k_equals_n(self):
        rng = np.random.RandomState(3)
        X = rng.randn(25, 4)
        model = fit_knn(X, rng.randn(25), k=25)
        self.assert_bitwise(model, rng.randn(30, 4))
        self.assert_bitwise(model, self.fixed_queries(rng, X, 30, [1, 2]))

    def test_overflowed_distances(self):
        # every distance of a +-1e200 row overflows to inf, so its prediction
        # weighs k targets by 1/inf = 0 and is NaN; the finite rows between
        # them share the block and must not change
        rng = np.random.RandomState(5)
        X = rng.randn(30, 3)
        model = fit_knn(X, rng.randn(30), k=5)
        queries = np.vstack([np.full((4, 3), 1e200), rng.randn(6, 3), np.full((2, 3), -1e200)])
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_bitwise(model, queries)
            assert np.isnan(predict_knn(model, queries[:4])).all()

    def test_queries_cross_block_boundaries(self):
        rng = np.random.RandomState(4)
        X = rng.randn(300, 4)
        model = fit_knn(X, rng.randn(300), k=3)
        rows = _KNN_BLOCK_ELEMENTS // model.samples.shape[0]
        queries = rng.randn(2 * rows + 7, 4)
        self.assert_bitwise(model, queries)
        self.assert_bitwise(model, queries[: rows + 1])

    @staticmethod
    def fixed_queries(rng, X, rows, fixed):
        """Random queries whose ``fixed`` columns hold one value in every row."""
        queries = rng.randn(rows, X.shape[1]) * X.std(axis=0) + X.mean(axis=0)
        queries[:, fixed] = queries[0, fixed]
        return queries

    def test_fleet_shaped_grid(self):
        # the slicing grid: volume, no_records, slice_time and prepare_time
        # are the same in every row, chunk_size and slice_size vary
        rng = np.random.RandomState(6)
        X = rng.uniform(1.0, 4000.0, size=(562, 6))
        model = fit_knn(X, rng.uniform(0.1, 5.0, 562), k=2)
        rows = _KNN_BLOCK_ELEMENTS // model.samples.shape[0]
        queries = self.fixed_queries(rng, X, 2 * rows + 13, [0, 1, 4, 5])
        self.assert_bitwise(model, queries)

    def test_one_fixed_column_in_the_middle(self):
        rng = np.random.RandomState(7)
        X = rng.randn(90, 5)
        model = fit_knn(X, rng.randn(90), k=3)
        self.assert_bitwise(model, self.fixed_queries(rng, X, 60, [2]))

    @pytest.mark.parametrize("rows", [1, 40])
    @pytest.mark.parametrize("features", [1, 6, 9])
    def test_every_column_fixed(self, rows, features):
        rng = np.random.RandomState(rows + features)
        X = rng.randn(70, features)
        model = fit_knn(X, rng.randn(70), k=4)
        queries = self.fixed_queries(rng, X, rows, list(range(features)))
        self.assert_bitwise(model, queries)
        self.assert_bitwise(model, np.vstack([X[5]] * rows))

    @pytest.mark.parametrize("features", [8, 9, 130])
    def test_fixed_columns_in_the_lanes_and_halves(self, features):
        # eight lanes from 8 features, split halves above 128: fixed
        # vectors land in lanes, in the remainder and in either half
        rng = np.random.RandomState(features)
        X = rng.randn(60, features) * rng.uniform(0.1, 100.0, size=features)
        model = fit_knn(X, rng.randn(60), k=3)
        for fixed in ([0], [features - 1], list(range(0, features, 3)),
                      list(range(features - 1))):
            self.assert_bitwise(model, self.fixed_queries(rng, X, 50, fixed))

    def test_overflowed_fixed_column(self):
        # a fixed column at 1e200 overflows its per-sample vector to inf
        rng = np.random.RandomState(8)
        X = rng.randn(30, 4)
        model = fit_knn(X, rng.randn(30), k=3)
        queries = rng.randn(12, 4)
        queries[:, 1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_bitwise(model, queries)
            self.assert_bitwise(model, queries[:1])
            assert np.isnan(predict_knn(model, queries)).all()

    @staticmethod
    def nearest_widths(monkeypatch):
        """The sample columns of each block predict_knn hands _nearest."""
        real, widths = models._nearest, []

        def spy(dist, k):
            widths.append(dist.shape[1])
            return real(dist, k)

        monkeypatch.setattr(models, "_nearest", spy)
        return widths

    @staticmethod
    def lattice_model(samples, k):
        """A KNN model over ``samples`` as given: standardizing by mean 0
        and scale 1 keeps every lattice distance, and every tie, exact."""
        features = samples.shape[1]
        return KNNModel(k=k, samples=samples, targets=np.arange(samples.shape[0], dtype=float),
                        standardizer=Standardizer(np.zeros(features), np.ones(features)))

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_fixed_columns_far_from_the_samples(self, monkeypatch, k):
        rng = np.random.RandomState(9 + k)
        X = rng.randn(300, 5)
        model = fit_knn(X, rng.randn(300), k=k)
        queries = self.fixed_queries(rng, X, 120, [0, 2, 3])
        queries[:, [0, 2, 3]] = [8.0, -8.0, 8.0]
        widths = self.nearest_widths(monkeypatch)
        self.assert_bitwise(model, queries)
        assert max(widths) < 300 // 10

    def test_distance_tied_at_the_reach(self, monkeypatch):
        # feature 0 is fixed at 0: samples 1 and 2 share the smallest
        # bound and sample 1 seeds the reach, 3 from row 0; sample 0's
        # bound is 3 as well, and its distance to row 0 ties the reach at
        # a lower index, so it must be kept and picked
        model = self.lattice_model(np.array(
            [[3.0, 0.0], [0.0, 3.0], [0.0, 5.0], [10.0, 0.0], [10.0, 1.0]]), k=1)
        queries = np.array([[0.0, 0.0], [0.0, 1.0]])
        # a budget one short of the call's 2 x 5 distances, so it prunes
        monkeypatch.setattr(models, "_KNN_BLOCK_ELEMENTS", 2 * 5 - 1)
        widths = self.nearest_widths(monkeypatch)
        self.assert_bitwise(model, queries)
        assert predict_knn(model, queries)[0] == 0.0 and widths[-1] == 3

    @pytest.mark.parametrize("k", [1, 2, 5, 11])
    def test_lattice_ties_at_the_reach(self, k):
        rng = np.random.RandomState(10 + k)
        model = self.lattice_model(rng.randint(0, 5, size=(90, 3)).astype(float), k)
        queries = rng.randint(0, 5, size=(60, 3)).astype(float)
        for fixed in ([0], [2], [0, 1]):
            queries[:, fixed] = queries[0, fixed]
            self.assert_bitwise(model, queries)

    def test_infinite_reach_beside_finite_rows(self):
        # row 5's varying column overflows every distance it has, so its
        # reach is inf and its block keeps every sample; the finite rows
        # of that block must not change
        rng = np.random.RandomState(11)
        X = rng.randn(40, 4)
        model = fit_knn(X, rng.randn(40), k=3)
        queries = self.fixed_queries(rng, X, 12, [0, 1])
        queries[:, [0, 1]] = 3.0
        queries[5, 3] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_bitwise(model, queries)
            prediction = predict_knn(model, queries)
        assert np.isnan(prediction[5]) and np.isfinite(np.delete(prediction, 5)).all()

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_bound_ties_among_the_seed(self, k):
        # the fixed columns take two values, so ten samples share the
        # smallest bound and the seed picks among ties
        rng = np.random.RandomState(12 + k)
        X = rng.randn(80, 4)
        X[:, :2] = rng.randint(0, 2, size=(80, 2))
        X[:10, :2] = 0.0
        model = fit_knn(X, rng.randn(80), k=k)
        queries = rng.randn(50, 4)
        queries[:, :2] = 0.0
        self.assert_bitwise(model, queries)

    def test_fleet_shaped_grid_scores_fewer_samples(self, monkeypatch):
        # test_fleet_shaped_grid's data with the fixed volume and
        # no_records placed beyond the samples: the bound must rule
        # samples out, so _nearest sees fewer columns than samples
        rng = np.random.RandomState(6)
        X = rng.uniform(1.0, 4000.0, size=(562, 6))
        model = fit_knn(X, rng.uniform(0.1, 5.0, 562), k=2)
        rows = _KNN_BLOCK_ELEMENTS // model.samples.shape[0]
        queries = self.fixed_queries(rng, X, 2 * rows + 13, [0, 1, 4, 5])
        queries[:, [0, 1]] = 4500.0
        widths = self.nearest_widths(monkeypatch)
        self.assert_bitwise(model, queries)
        assert widths and max(widths) < 562

    def test_a_call_that_fits_one_block_scores_every_sample(self, monkeypatch):
        # test_fleet_shaped_grid_scores_fewer_samples's data on as many
        # rows as one block holds: the bound would rule samples out, but
        # the call scores them all at once
        rng = np.random.RandomState(6)
        X = rng.uniform(1.0, 4000.0, size=(562, 6))
        model = fit_knn(X, rng.uniform(0.1, 5.0, 562), k=2)
        queries = self.fixed_queries(rng, X, _KNN_BLOCK_ELEMENTS // 562, [0, 1, 4, 5])
        queries[:, [0, 1]] = 4500.0
        widths = self.nearest_widths(monkeypatch)
        self.assert_bitwise(model, queries)
        assert widths == [562]

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_sample_layout_does_not_change_the_bits(self, layout):
        # 9 features, so the sum runs in lanes; random, fixed-column and
        # one-row queries, pruned and not
        rng = np.random.RandomState(14)
        X = rng.randn(700, 9) * rng.uniform(0.1, 100.0, size=9)
        model = fit_knn(X, rng.randn(700), k=3)
        if layout == "fortran":
            samples = np.asfortranarray(model.samples)
        else:
            samples = np.repeat(model.samples, 2, axis=1)[:, ::2]
        assert not samples.flags.c_contiguous
        other = KNNModel(k=model.k, samples=samples, targets=model.targets,
                         standardizer=model.standardizer)
        for queries in (rng.randn(50, 9) * X.std(axis=0),
                        self.fixed_queries(rng, X, 60, [0, 3, 8]),
                        self.fixed_queries(rng, X, 10, [1, 2]),
                        X[:1]):
            assert predict_knn(other, queries).tobytes() == predict_knn(model, queries).tobytes()


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17, 128, 129, 300])
def test_ordered_sum_adds_in_numpys_order(width):
    rng = np.random.RandomState(width)
    terms = rng.randn(40, width) * 10.0 ** rng.randint(-8, 9, size=(40, width))
    total = _ordered_sum(lambda j: terms[:, j].copy(), 0, width)
    assert total.tobytes() == np.sum(terms, axis=-1).tobytes()
    # vector terms, each standing for every row of the matrix terms, at
    # mixed positions, at the front, and in every position
    blocks = rng.randn(3, 40, width) * 10.0 ** rng.randint(-8, 9, size=(3, 40, width))
    for vectors in (rng.rand(width) < 0.5, np.arange(width) % 3 == 0, np.ones(width, bool)):
        blocks[:, :, vectors] = blocks[:1, :, vectors]
        total = _ordered_sum(
            lambda j: (blocks[0, :, j] if vectors[j] else blocks[:, :, j]).copy(), 0, width)
        assert total.shape == ((40,) if vectors.all() else (3, 40))
        expected = np.sum(blocks, axis=-1)
        assert np.broadcast_to(total, expected.shape).tobytes() == expected.tobytes()


ROW_MODELS = [
    pytest.param("polyr", {"degree": degree}, id="polyr-%d" % degree)
    for degree in range(1, 7)
] + [
    pytest.param("mlp", {"hidden_widths": (10, 9), "epochs": 20}, id="mlp"),
    pytest.param("knn", {"k": 3}, id="knn"),
]


@pytest.mark.parametrize("method, params", ROW_MODELS)
def test_prediction_of_a_row_does_not_depend_on_the_batch(method, params):
    rng = np.random.RandomState(12)
    X = rng.uniform(1.0, 1000.0, size=(120, 6))
    y = X @ rng.uniform(0.1, 2.0, size=6) + rng.randn(120)
    model = fit_method(method, X, y, params)
    queries = rng.uniform(1.0, 1000.0, size=(500, 6))
    batch = predict_method(model, queries)
    one_by_one = np.concatenate([predict_method(model, row[None, :]) for row in queries])
    assert batch.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("method, params", [
    pytest.param("polyr", {"degree": 3}, id="polyr"),
    pytest.param("mlp", {"hidden_widths": (10, 9), "epochs": 5}, id="mlp"),
    pytest.param("knn", {"k": 3}, id="knn"),
])
def test_zero_rows_predict_an_empty_array(method, params):
    rng = np.random.RandomState(13)
    model = fit_method(method, rng.uniform(1.0, 10.0, size=(30, 6)), rng.rand(30), params)
    prediction = predict_method(model, np.empty((0, 6)))
    assert prediction.shape == (0,) and prediction.dtype == float


class TestMLP:
    def test_gradients_match_finite_differences(self):
        rng = np.random.RandomState(0)
        X = rng.randn(8, 3)
        y = rng.rand(8) + 1.0
        widths = [3, 5, 4, 1]
        weights = [rng.randn(widths[i + 1], widths[i]) * 0.5
                   for i in range(len(widths) - 1)]
        biases = [rng.randn(widths[i + 1]) * 0.1
                  for i in range(len(widths) - 1)]
        _, gw, gb = mlp_loss_and_gradients(weights, biases, X, y)
        eps = 1e-6
        for trial in range(10):
            layer = rng.randint(len(weights))
            if trial % 2 == 0:
                i = rng.randint(weights[layer].shape[0])
                j = rng.randint(weights[layer].shape[1])
                analytic = gw[layer][i, j]

                def bump(h, layer=layer, i=i, j=j):
                    w = [w_.copy() for w_ in weights]
                    w[layer][i, j] += h
                    return mlp_loss_and_gradients(w, biases, X, y)[0]
            else:
                i = rng.randint(biases[layer].shape[0])
                analytic = gb[layer][i]

                def bump(h, layer=layer, i=i):
                    b = [b_.copy() for b_ in biases]
                    b[layer][i] += h
                    return mlp_loss_and_gradients(weights, b, X, y)[0]

            numeric = (bump(eps) - bump(-eps)) / (2 * eps)
            assert abs(numeric - analytic) < 1e-4

    def test_training_reduces_loss(self):
        rng = np.random.RandomState(1)
        X = rng.uniform(0, 1, size=(60, 2))
        y = 3.0 + X[:, 0] + 2.0 * X[:, 1]
        model = fit_mlp(X, y, (8,), epochs=200, step_size=0.05)
        assert model.loss_history[-1] < model.loss_history[0] * 0.2

    def test_seeded_and_deterministic(self):
        X = np.linspace(0, 1, 30).reshape(-1, 1)
        y = 1.0 + X[:, 0]
        a = fit_mlp(X, y, (6,), epochs=20, step_size=0.05)
        b = fit_mlp(X, y, (6,), epochs=20, step_size=0.05)
        assert all(np.array_equal(w1, w2)
                   for w1, w2 in zip(a.weights, b.weights))
        assert predict_mlp(a, X) == pytest.approx(predict_mlp(b, X))

    def test_divergence_raises(self, monkeypatch):
        # the ReLU output clamp keeps real runs finite, so the non-finite
        # guard is exercised by injecting a nan epoch loss
        import semcloud.learning.models as models

        real = models.mlp_loss_and_gradients

        def poisoned(weights, biases, X, y):
            _, gw, gb = real(weights, biases, X, y)
            return float("nan"), gw, gb

        monkeypatch.setattr(models, "mlp_loss_and_gradients", poisoned)
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = 1.0 + X[:, 0]
        with pytest.raises(Divergence):
            fit_mlp(X, y, (8,), epochs=5, step_size=0.05)

    def test_empty_hidden_widths_rejected(self):
        with pytest.raises(LearningError):
            fit_mlp(np.ones((3, 1)), np.ones(3), ())


class TestTuning:
    @staticmethod
    def quartic_data(noise=0.02, n=120, seed=5):
        rng = np.random.RandomState(seed)
        X = rng.uniform(0.5, 2.0, size=(n, 1))
        y = 1.0 + X[:, 0] ** 4
        y = y * (1.0 + noise * rng.uniform(-1, 1, size=n))
        return X, y

    def test_split_is_seeded_and_disjoint(self):
        X = np.arange(20.0).reshape(-1, 1)
        y = np.arange(20.0)
        Xtr, ytr, Xte, yte = train_test_split(X, y, seed=0)
        assert len(ytr) == 16 and len(yte) == 4
        assert set(ytr) | set(yte) == set(y)
        again = train_test_split(X, y, seed=0)
        assert np.array_equal(again[1], ytr)

    def test_grid_search_matches_exhaustive_oracle(self):
        data = self.quartic_data()
        grid = [{"degree": d} for d in range(1, 7)]
        params, model, report = grid_search("polyr", grid, data, split_seed=0)
        # oracle: evaluate every grid point by hand with the same split
        Xtr, ytr, Xte, yte = train_test_split(*data, seed=0)
        scores = []
        for p in grid:
            m = fit_method("polyr", Xtr, ytr, p)
            scores.append((nmae(predict_method(m, Xte), yte), p["degree"]))
        best = min(scores)
        assert params["degree"] == best[1]
        assert report.nmae == pytest.approx(best[0])
        assert isinstance(model, PolyRModel)

    def test_unknown_method_is_a_learning_error(self):
        with pytest.raises(LearningError, match="unknown method 'svm'"):
            fit_method("svm", *self.quartic_data(), {})

    def test_unknown_model_type_is_a_learning_error(self):
        with pytest.raises(LearningError, match="unknown model type"):
            predict_method(object(), np.zeros((2, 1)))

    @pytest.mark.parametrize("method, params, size", [
        ("polyr", {"degree": 3}, 3),
        # 1 feature -> 4 hidden -> 1 output: 4 + 4 weights, 4 + 1 biases
        ("mlp", {"hidden_widths": (4,), "epochs": 2}, 13),
        ("knn", {"k": 3}, 3),
    ], ids=["polyr", "mlp", "knn"])
    def test_model_size(self, method, params, size):
        assert fit_method(method, *self.quartic_data(), params).size == size

    def test_tie_breaks_toward_the_smaller_model(self):
        # A constant target: every k predicts it exactly, so all tie at 0.
        X, _ = self.quartic_data()
        y = np.full(len(X), 2.0)
        params, model, report = grid_search("knn", [{"k": 4}, {"k": 2}, {"k": 3}], (X, y))
        assert report.nmae == 0.0
        assert params == {"k": 2} and model.k == 2

    def test_grid_points_the_split_cannot_fit_are_skipped(self):
        data = self.quartic_data(n=5)  # four training rows
        params, model, _ = grid_search("knn", [{"k": 5}, {"k": 2}, {"k": 9}], data)
        assert params == {"k": 2} and model.k == 2
        with pytest.raises(LearningError, match=r"no knn grid point fits 4 training rows \(of 5\)"):
            grid_search("knn", [{"k": 5}, {"k": 9}], data)

    def test_single_point_grid(self):
        data = self.quartic_data()
        params, model, report = grid_search("knn", [{"k": 3}], data)
        assert params == {"k": 3}
        assert isinstance(model, KNNModel)
        assert np.isfinite(report.nmae)

    def test_report_carries_timings(self):
        data = self.quartic_data()
        _, _, report = grid_search("polyr", [{"degree": 2}], data)
        assert report.learning_time_ms >= 0.0
        assert report.inference_time_ms >= 0.0
        assert report.method == "polyr"

    def test_full_fraction_equals_plain_fit(self):
        data = self.quartic_data()
        curve, frac = min_train_fraction_sweep(
            "polyr", {"degree": 4}, data, target_nmae=0.5,
            fractions=(1.0,), seeds=(0,))
        assert len(curve) == 1 and curve[0][0] == 1.0
        assert frac == 1.0

    def test_sweep_returns_none_when_target_unreachable(self):
        data = self.quartic_data()
        curve, frac = min_train_fraction_sweep(
            "polyr", {"degree": 1}, data, target_nmae=1e-9,
            fractions=(0.25, 0.5, 1.0))
        assert frac is None
        assert len(curve) == 3

    def test_bigger_fractions_do_not_hurt_much(self):
        data = self.quartic_data(noise=0.0)
        curve, _ = min_train_fraction_sweep(
            "polyr", {"degree": 4}, data, target_nmae=0.01,
            fractions=(0.1, 1.0))
        assert curve[1][1] <= curve[0][1] + 1e-6


class TestRegistryAndPersistence:
    def test_training_frame_replicates_range_indexed_targets(self):
        records = [make_pilot_record()]
        X, y = training_frame(records, "func_mp")
        assert X.shape[0] == 10  # one row per range index
        assert set(X[:, -1]) == set(float(i) for i in range(1, 11))
        X2, y2 = training_frame(records, "func_ms")
        assert X2.shape[0] == 1

    def test_time_model_frame_uses_configuration_rows(self):
        records = [make_pilot_record(),
                   make_pilot_record(kind="configuration", total_time=3.0)]
        X, y = time_model_frame(records)
        assert X.shape == (1, len(TIME_FEATURES))
        assert y[0] == 3.0

    def test_register_externals_arity_and_missing(self):
        X = np.array([[10.0, 1.0], [20.0, 2.0]])
        model = fit_knn(X, np.array([1.0, 2.0]), k=1)
        registry = register_externals({"func_ms": model})
        fn = registry.resolve("func_ms", 2)
        assert fn([(10.0, 1.0)]) == [pytest.approx(1.0)]
        with pytest.raises(MissingExternal):
            registry.resolve("func_mp", 4)

    def test_register_externals_checks_each_signature_against_its_target(self):
        model = fit_knn(np.array([[10.0, 1.0], [20.0, 2.0]]), np.array([1.0, 2.0]), k=1)
        # func_mp takes four arguments; func_fs_1 is a search, not a learned external
        for name in ("func_mp", "func_fs_1", "func_nope"):
            with pytest.raises(SignatureMismatch):
                register_externals({name: model})
        fn = register_externals({"func_ms": model}).resolve("func_ms", 2)
        with pytest.raises(DimensionMismatch):
            fn([(10.0, 1.0, 3.0)])

    def test_save_load_round_trip(self, tmp_path):
        X = np.linspace(0, 2, 15).reshape(-1, 1)
        y = 1.0 + 2.0 * X[:, 0]
        probe = np.array([[0.35], [1.7]])
        for model in (fit_polyr(X, y, degree=2), fit_knn(X, y, k=2),
                      fit_mlp(X, y, (4,), epochs=10, step_size=0.05)):
            path = tmp_path / "m.json"
            save_model(model, path)
            loaded = load_model(path.read_text(), path)
            assert type(loaded) is type(model)
            assert predict_method(loaded, probe) == pytest.approx(
                predict_method(model, probe))

    @pytest.mark.parametrize("text, reason", [
        # the JSON scanner recurses once per nesting level
        ("[" * 100_000 + "]" * 100_000, "RecursionError: maximum recursion depth exceeded"),
        ("[]", "LearningError: model must be a mapping, got list"),
    ], ids=["deeply-nested", "not-a-mapping"])
    def test_malformed_model_file_is_rejected_naming_the_file(self, text, reason):
        with pytest.raises(LearningError,
                           match="^cannot load model file m.json: " + re.escape(reason)):
            load_model(text, "m.json")

    def test_model_dict_round_trip(self):
        model = fit_knn(np.ones((3, 1)), np.arange(3.0), k=1)
        clone = model_from_dict(model_to_dict(model))
        assert np.array_equal(clone.samples, model.samples)

    # Model files in the format written before polyr dropped its
    # cross_terms flag and stored feature count, with the predictions that
    # format's loader gave for PARENT_PROBE.
    PARENT_FILES = {
        "polyr": ({"format": "semcloud-model/1", "method": "polyr",
                   "hyperparameters": {"cross_terms": False, "degree": 2},
                   "payload": {"feature_scale": [4.0, 2.5], "n_features": 2,
                               "rank_deficient": False,
                               "weights": [1.5, 2.25, -0.75, 0.5, 3.125]}},
                  [4.16953125, 2.53828125, 11.565625, 2.240625]),
        "mlp": ({"format": "semcloud-model/1", "method": "mlp",
                 "hyperparameters": {"hidden_widths": [3]},
                 "payload": {"weights": [[[0.5, -0.25], [1.0, 0.75], [-0.5, 0.125]],
                                         [[0.75, 1.25, -0.5]]],
                             "biases": [[0.1, -0.2, 0.3], [0.05]],
                             "mean": [1.0, 0.5], "scale": [2.0, 1.5], "target_scale": 3.0}},
                [0.4499999999999999, 1.1437499999999998, 9.6125, 0.0]),
        "knn": ({"format": "semcloud-model/1", "method": "knn",
                 "hyperparameters": {"k": 2},
                 "payload": {"samples": [[0.0, 0.0], [1.0, -1.0], [-0.5, 2.0], [2.0, 1.0]],
                             "targets": [1.0, 4.0, 2.5, 7.0],
                             "mean": [1.0, 0.5], "scale": [2.0, 1.5]}},
                [1.7500000000000002, 2.7365061711801313, 4.658633371878662, 1.0]),
    }
    PARENT_PROBE = [[0.5, 2.0], [1.5, -1.0], [3.0, 4.0], [1.0, 0.5]]

    @pytest.mark.parametrize("method", ["polyr", "mlp", "knn"])
    def test_model_file_of_the_previous_format_predicts_the_same(self, method):
        data, expected = self.PARENT_FILES[method]
        model = model_from_dict(data)
        assert predict_method(model, np.array(self.PARENT_PROBE)).tolist() == expected

    def test_polyr_file_with_cross_terms_is_rejected(self):
        data, _ = self.PARENT_FILES["polyr"]
        data = {**data, "hyperparameters": {"cross_terms": True, "degree": 2},
                "payload": {**data["payload"],
                            "weights": [1.5, 2.25, -0.75, 0.5, 3.125, 1.0]}}
        with pytest.raises(LearningError, match="weights"):
            model_from_dict(data)

    @pytest.mark.parametrize("method, section, key, value", [
        ("knn", "hyperparameters", "k", 0),
        ("knn", "hyperparameters", "k", 2.5),
        ("knn", "hyperparameters", "k", True),
        ("knn", "hyperparameters", "k", 16),
        ("knn", "payload", "samples", [1.0, 2.0]),
        ("knn", "payload", "samples", [[0.0, float("nan")]] * 15),
        ("knn", "payload", "samples", [[10**400, 0.0]] + [[0.0, 0.0]] * 14),
        ("knn", "payload", "targets", [1.0, 2.0]),
        ("knn", "payload", "mean", [0.0]),
        ("knn", "payload", "scale", [1.0, 0.0]),
        ("polyr", "payload", "weights", [1.0, 2.0]),
        ("polyr", "payload", "weights", [10**400, 0.0, 0.0, 0.0, 0.0]),
        ("polyr", "payload", "feature_scale", [1.0]),
        ("mlp", "payload", "biases", [[0.1, 0.1], [0.1]]),
        ("mlp", "payload", "biases", [[0.1, 0.1, 0.1]]),
        ("mlp", "payload", "weights", [[[1.0, 1.0]] * 3]),
        ("mlp", "payload", "weights", [[[1.0, 1.0]] * 3, [[1.0, 1.0]]]),
        ("mlp", "payload", "mean", [0.0, 0.0, 0.0]),
        ("mlp", "payload", "target_scale", float("inf")),
    ])
    def test_malformed_model_dict_rejected(self, method, section, key, value):
        X = np.column_stack([np.linspace(0, 2, 15), np.linspace(1, 5, 15) ** 2])
        y = 1.0 + X[:, 0] + X[:, 1]
        params = {"knn": {"k": 2}, "polyr": {"degree": 2},
                  "mlp": {"hidden_widths": (3,), "epochs": 2}}[method]
        data = model_to_dict(fit_method(method, X, y, params))
        model_from_dict(data)
        data[section][key] = value
        with pytest.raises(LearningError):
            model_from_dict(data)


class TestPilotRecords:
    def test_csv_round_trip(self, tmp_path):
        records = [make_pilot_record(),
                   make_pilot_record(kind="configuration", chunk_size=200.0,
                                     slice_size=100.0)]
        path = tmp_path / "pilot.csv"
        write_pilot_csv(records, path)
        assert read_pilot_csv(path.read_text(), path) == records

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_a_non_finite_cell_is_rejected_naming_the_file_and_line(self, tmp_path, cell):
        path = tmp_path / "pilot.csv"
        write_pilot_csv([make_pilot_record(), make_pilot_record()], path)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index("slice_time")] = cell
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(LearningError, match=r"pilot stats %s line 3: non-finite value '%s'"
                           % (re.escape(str(path)), re.escape(cell))):
            read_pilot_csv(path.read_text(), path)

    def test_an_over_long_cell_is_rejected_naming_the_file_and_line(self, tmp_path):
        path = tmp_path / "pilot.csv"
        write_pilot_csv([make_pilot_record(), make_pilot_record()], path)
        header, first, second = path.read_text().splitlines()
        cell = "p" * (csv.field_size_limit() + 1)
        path.write_text("\n".join([header, first, cell + second[2:]]) + "\n")
        with pytest.raises(LearningError, match=r"pilot stats %s line 3: field larger than "
                           "field limit" % re.escape(str(path))):
            read_pilot_csv(path.read_text(), path)

    @pytest.mark.parametrize("column, cell, reason", [
        ("slice_memory", "-5.0", "slice_memory is negative"),
        ("kind", "bogus", "unknown run kind 'bogus'"),
        ("storage_mode", "ssd", "unknown storage mode 'ssd'"),
    ])
    def test_a_row_that_fails_its_checks_is_rejected_naming_the_file_and_line(
            self, tmp_path, column, cell, reason):
        # the checks write_pilot_csv makes on each record
        path = tmp_path / "pilot.csv"
        write_pilot_csv([make_pilot_record(), make_pilot_record()], path)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[header.split(",").index(column)] = cell
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(LearningError, match=r"pilot stats %s line 3: %s$"
                           % (re.escape(str(path)), re.escape(reason))):
            read_pilot_csv(path.read_text(), path)

    def test_violations_flag_bad_rows(self):
        good = make_pilot_record()
        assert good.violations() == []
        bad = make_pilot_record(kind="configuration", slice_size=2000.0)
        assert any("ns <= nc" in v for v in bad.violations())
        assert make_pilot_record(total_time=0.1).violations()
        assert make_pilot_record(storage_mode="ssd").violations() == [
            "unknown storage mode 'ssd'"]

    def test_target_name_sets(self):
        assert set(ESTIMATION_TARGETS) == {
            "func_ms", "func_mp", "func_ssl", "func_spr", "func_sst"}
        assert "func_ss" in CONFIGURATION_TARGETS
