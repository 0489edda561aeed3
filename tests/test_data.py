import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from dflsim import rng
from dflsim.core_learning import Dataset, Minibatch, ParamVector, batch_gradient, evaluate_accuracy, sgd_step
from dflsim.data import (
    FormatError,
    PartitionError,
    PartitionPlan,
    gen_synthetic_blobs,
    load_idx,
    partition_dirichlet,
    partition_iid,
    partition_label_skew,
    split_auxiliary,
)
from dflsim.sim import _stratified_subsample
from oracles import label_skew_partition, synthetic_blobs


def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_labels=0, prefix=""):
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    img_path = tmp_path / f"{prefix}images.idx"
    lab_path = tmp_path / f"{prefix}labels.idx"
    img_path.write_bytes(
        struct.pack(">IIII", image_magic, count, rows, cols) + images.tobytes()
    )
    payload = struct.pack(">II", label_magic, len(labels)) + bytes(labels)
    if truncate_labels:
        payload = payload[:-truncate_labels]
    lab_path.write_bytes(payload)
    return str(img_path), str(lab_path)


class TestLoadIdx:
    def test_well_formed_pair(self, tmp_path):
        gen = np.random.default_rng(0)
        images = gen.integers(0, 256, size=(2, 28, 28))
        img, lab = write_idx_pair(tmp_path, images, [3, 7])
        data = load_idx(img, lab)
        assert len(data) == 2
        assert data.feature_dim == 784
        np.testing.assert_allclose(
            data.features[0], images[0].reshape(-1) / 255.0, atol=1e-12
        )
        assert list(data.labels) == [3, 7]

    def test_swapped_magic_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0x801)
        with pytest.raises(FormatError, match="unexpected magic"):
            load_idx(img, lab)

    def test_truncated_labels_rejected(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], truncate_labels=1)
        with pytest.raises(FormatError, match="truncated"):
            load_idx(img, lab)

    def test_count_mismatch_rejected(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        _, lab = write_idx_pair(tmp_path, np.zeros((3, 2, 2)), [0, 1, 2], prefix="b-")
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(img, lab)


    @pytest.mark.parametrize("images_bytes, labels_bytes, message", [
        (lambda b: b[:3], None, "{images}: truncated header at byte 0"),
        (lambda b: b[:10], None, "{images}: truncated header at byte 8"),
        (lambda b: b[:-1], None, "{images}: truncated pixel payload at byte 23, want 24"),
        (lambda b: struct.pack(">I", 0x802) + b[4:], None,
         "{images}: unexpected magic 0x00000802 at byte 0, want 0x00000803"),
        (None, lambda b: b[:6], "{labels}: truncated header at byte 4"),
        (None, lambda b: b[:-1], "{labels}: truncated label payload at byte 9, want 10"),
        (None, lambda b: struct.pack(">I", 0x803) + b[4:],
         "{labels}: unexpected magic 0x00000803 at byte 0, want 0x00000801"),
        (None, lambda b: struct.pack(">II", 0x801, 3) + bytes(3),
         "image/label count mismatch: 2 images vs 3 labels"),
        # Both files are read before either is parsed, and the images are checked first.
        (lambda b: b[:-1], lambda b: b[:-1], "{images}: truncated pixel payload at byte 23, want 24"),
    ], ids=["magic-short", "header-short", "pixels-short", "image-magic", "label-header-short",
            "labels-short", "label-magic", "count-mismatch", "images-first"])
    def test_format_errors_name_file_and_byte(self, tmp_path, images_bytes, labels_bytes, message):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1])
        for path, edit in ((img, images_bytes), (lab, labels_bytes)):
            if edit is not None:
                with open(path, "r+b") as f:
                    data = edit(f.read())
                    f.seek(0)
                    f.truncate()
                    f.write(data)
        with pytest.raises(FormatError) as excinfo:
            load_idx(img, lab)
        assert str(excinfo.value) == message.format(images=img, labels=lab)

    def test_label_outside_num_classes_names_its_file(self, tmp_path):
        # A test set read against a 3-class training set: label 3, the third, is the first
        # out of range, and a label file's payload starts after its 8-byte header.
        img, lab = write_idx_pair(tmp_path, np.zeros((4, 2, 2)), [0, 2, 3, 4])
        with pytest.raises(FormatError) as excinfo:
            load_idx(img, lab, num_classes=3)
        assert str(excinfo.value) == f"{lab}: label 3 at byte 10, want one of the 3 classes [0, 3)"
        assert load_idx(img, lab, num_classes=5).num_classes == 5

    def test_empty_pair_names_its_image_file(self, tmp_path):
        # Without num_classes the class count would be taken from the max of no labels.
        img, lab = write_idx_pair(tmp_path, np.zeros((0, 2, 3)), [])
        for num_classes in (None, 2):
            with pytest.raises(FormatError) as excinfo:
                load_idx(img, lab, num_classes=num_classes)
            assert str(excinfo.value) == f"{img}: no examples"


class TestSyntheticBlobs:
    def test_zero_spread_collapses_to_means(self):
        data = gen_synthetic_blobs(4, 8, 5, 0.0, seed=3)
        for c in range(4):
            block = data.features[data.labels == c]
            assert np.all(block == block[0])
        # degenerate clusters are perfectly learnable by a linear model
        model = ParamVector(np.zeros(4 * 8 + 4), 4, 8)
        batch = Minibatch(np.arange(len(data)))
        for _ in range(200):
            model = sgd_step(model, batch_gradient(model, data, batch), 0.5)
        assert evaluate_accuracy(model, data) == 1.0

    @pytest.mark.parametrize("args", [
        (4, 8, 5, 0.0, 3),  # zero spread: every -0.0 product becomes +0.0 in the add
        (12, 10, 20, 1.3, 4),  # more classes than BLOB_ANCHOR_AXES: classes share axes
        (5, 3, 17, 1.0, 2),
        (3, 4, 1, 0.7, 11),
        # The bench's training sets (desk and N=50) and their shared test set.
        (10, 64, 200, 3.5, 7),
        (10, 64, 1000, 3.5, 7),
        (10, 64, 100, 3.5, 8),
    ])
    def test_equals_reference_synthesizer(self, args):
        data, ref = gen_synthetic_blobs(*args), synthetic_blobs(*args)
        assert data.features.tobytes() == ref.features.tobytes()
        assert data.labels.tobytes() == ref.labels.tobytes()

    def test_peak_memory_is_the_result_and_little_more(self):
        tracemalloc.start()
        try:
            data = gen_synthetic_blobs(10, 64, 1000, 3.5, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A class-sized temporary per class would add about 1 MiB here.
        assert peak <= data.features.nbytes + data.labels.nbytes + 128 * 1024

    def test_replay_is_identical(self):
        a = gen_synthetic_blobs(3, 4, 10, 0.7, seed=11)
        b = gen_synthetic_blobs(3, 4, 10, 0.7, seed=11)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_label_histogram_exact(self):
        data = gen_synthetic_blobs(5, 6, 17, 1.0, seed=2)
        np.testing.assert_array_equal(np.bincount(data.labels, minlength=5), np.full(5, 17))

    def test_mean_separation_at_least_four_spread(self):
        spread = 1.3
        data = gen_synthetic_blobs(12, 6, 200, spread, seed=4)
        means = np.stack([data.features[data.labels == c].mean(axis=0) for c in range(12)])
        for i in range(12):
            for j in range(i + 1, 12):
                # empirical means wander ~spread/sqrt(200) around the true ones
                assert np.linalg.norm(means[i] - means[j]) >= 4 * spread - 0.5


def histogram(data, indices):
    return np.bincount(data.labels[list(indices)], minlength=data.num_classes)


class TestPartitionIid:
    def test_exact_division(self):
        data = gen_synthetic_blobs(10, 4, 100, 1.0, seed=5)
        plan = partition_iid(data, 10, seed=1)
        for idx in plan.client_indices:
            assert len(idx) == 100
            np.testing.assert_array_equal(histogram(data, idx), np.full(10, 10))

    def test_histograms_equal_across_clients(self):
        data = gen_synthetic_blobs(4, 3, 55, 1.0, seed=6)
        plan = partition_iid(data, 7, seed=2)
        hists = [histogram(data, idx) for idx in plan.client_indices]
        for h in hists[1:]:
            np.testing.assert_array_equal(h, hists[0])

    def test_disjoint(self):
        data = gen_synthetic_blobs(3, 3, 30, 1.0, seed=7)
        plan = partition_iid(data, 4, seed=3)
        seen = set()
        for idx in plan.client_indices:
            assert not seen.intersection(idx)
            seen.update(idx)

    def test_class_smaller_than_clients(self):
        data = gen_synthetic_blobs(3, 3, 4, 1.0, seed=8)
        with pytest.raises(PartitionError):
            partition_iid(data, 5, seed=0)


class TestPartitionLabelSkew:
    def test_exactly_h_distinct_labels(self):
        data = gen_synthetic_blobs(10, 4, 100, 1.0, seed=9)
        plan = partition_label_skew(data, 10, 4, seed=4)
        for idx in plan.client_indices:
            assert len(set(data.labels[list(idx)])) == 4

    def test_h_equals_c_covers_all_classes(self):
        data = gen_synthetic_blobs(5, 3, 40, 1.0, seed=10)
        plan = partition_label_skew(data, 4, 5, seed=5)
        for idx in plan.client_indices:
            assert len(set(data.labels[list(idx)])) == 5

    def test_class_shards_cover_class_minus_remainder(self):
        data = gen_synthetic_blobs(6, 3, 50, 1.0, seed=11)
        plan = partition_label_skew(data, 4, 3, seed=6)
        assigned = [i for idx in plan.client_indices for i in idx]
        for c in range(6):
            class_idx = set(np.flatnonzero(data.labels == c))
            held = class_idx.intersection(assigned)
            holders = sum(
                1 for idx in plan.client_indices if set(idx) & class_idx
            )
            per = len(class_idx) // holders
            assert len(held) == per * holders

    def test_h_too_large(self):
        data = gen_synthetic_blobs(3, 3, 10, 1.0, seed=12)
        with pytest.raises(ValueError):
            partition_label_skew(data, 2, 4, seed=0)

    @pytest.mark.parametrize("C", range(2, 11))
    def test_slots_deal_the_clients_the_loop_oracle_deals(self, C):
        # 50 examples a class: a class has at most 50 holders (n <= 50, h <= C).
        data = Dataset(np.zeros((50 * C, 1)), np.repeat(np.arange(C), 50), C)
        for n in range(2, 51):
            for h in range(-(-C // n), C + 1):
                for seed in (0, 1, 2):
                    plan = partition_label_skew(data, n, h, seed)
                    oracle = label_skew_partition(data, n, h, seed)
                    assert all(np.array_equal(a, b) for a, b in
                               zip(plan.client_indices, oracle.client_indices, strict=True))

    def test_a_class_too_small_for_its_holders_is_named_as_the_oracle_names_it(self):
        # Uneven classes, as an IDX file may hold: class 2 has 2 examples for its 3 holders.
        sizes = [9, 7, 2, 8]
        data = Dataset(np.zeros((sum(sizes), 1)), np.repeat(np.arange(4), sizes), 4)
        message = re.escape("class 2 has 2 examples for 3 holders")
        with pytest.raises(PartitionError, match=message):
            label_skew_partition(data, 6, 2, seed=3)
        with pytest.raises(PartitionError, match=message):
            partition_label_skew(data, 6, 2, seed=3)
        uneven = Dataset(np.zeros((sum(sizes) + 9, 1)), np.repeat(np.arange(4), [9, 7, 11, 8]), 4)
        for seed in range(5):
            assert all(np.array_equal(a, b) for a, b in zip(
                partition_label_skew(uneven, 6, 2, seed).client_indices,
                label_skew_partition(uneven, 6, 2, seed).client_indices, strict=True))


class TestPartitionDirichlet:
    def test_huge_alpha_near_uniform(self):
        data = gen_synthetic_blobs(5, 3, 200, 1.0, seed=13)
        plan = partition_dirichlet(data, 4, alpha=1e6, seed=7)
        for idx in plan.client_indices:
            props = histogram(data, idx) / len(idx)
            np.testing.assert_allclose(props, 0.2, atol=0.02)

    def test_small_alpha_concentrates(self):
        data = gen_synthetic_blobs(4, 3, 100, 1.0, seed=14)
        hits = 0
        for seed in range(100):
            plan = partition_dirichlet(data, 5, alpha=0.1, seed=seed)
            shares = [
                histogram(data, idx).max() / len(idx) for idx in plan.client_indices
            ]
            hits += any(s > 0.5 for s in shares)
        assert hits >= 90

    def test_per_class_totals_conserved(self):
        data = gen_synthetic_blobs(6, 3, 73, 1.0, seed=15)
        plan = partition_dirichlet(data, 5, alpha=0.5, seed=8)
        total = np.zeros(6, dtype=int)
        for idx in plan.client_indices:
            total += histogram(data, idx)
        np.testing.assert_array_equal(total, np.full(6, 73))

    def test_every_client_is_populated_exactly_when_each_can_get_an_example(self):
        # Small alpha leaves clients empty, so the top-up runs down to one example each.
        data = gen_synthetic_blobs(2, 3, 3, 1.0, seed=16)
        for seed in range(30):
            plan = partition_dirichlet(data, 6, alpha=0.05, seed=seed)
            assert sorted(len(idx) for idx in plan.client_indices) == [1] * 6
        with pytest.raises(PartitionError, match="^6 examples cannot give each of 7 clients one$"):
            partition_dirichlet(data, 7, alpha=0.05, seed=0)

    def test_largest_remainder_within_one_of_target(self):
        data = gen_synthetic_blobs(3, 2, 101, 1.0, seed=16)
        num_clients, alpha, seed = 4, 0.7, 9
        plan = partition_dirichlet(data, num_clients, alpha, seed)
        # replay the draws to recover the sampled proportions
        gen = rng.stream(seed, purpose="partition-dirichlet")
        for c in range(3):
            props = gen.dirichlet(np.full(num_clients, alpha))
            gen.permutation(np.flatnonzero(data.labels == c))
            counts = np.array(
                [histogram(data, idx)[c] for idx in plan.client_indices]
            )
            # before any empty-client top-up, counts differ from targets by < 1
            if all(len(idx) > 1 for idx in plan.client_indices):
                assert np.all(np.abs(counts - props * 101) < 1.0 + 1e-9)


class TestSplitAuxiliary:
    def test_basic_fraction(self):
        data = gen_synthetic_blobs(5, 3, 100, 1.0, seed=17)
        plan = partition_iid(data, 5, seed=10)
        split = split_auxiliary(data, plan, 0.2, seed=11)
        for k in range(5):
            assert len(split[k].aux) == 20
            assert len(split[k].train) == 80

    def test_stratified_within_one(self):
        data = gen_synthetic_blobs(4, 3, 60, 1.0, seed=18)
        plan = partition_label_skew(data, 4, 2, seed=12)
        split = split_auxiliary(data, plan, 0.25, seed=13)
        for k in range(4):
            alloc = histogram(data, plan.client_indices[k])
            aux = histogram(data, split[k].aux)
            for c in range(4):
                assert abs(aux[c] - 0.25 * alloc[c]) <= 1.0

    def test_disjoint_union(self):
        data = gen_synthetic_blobs(3, 3, 40, 1.0, seed=19)
        plan = partition_iid(data, 3, seed=14)
        split = split_auxiliary(data, plan, 0.3, seed=15)
        for k in range(3):
            train, aux = set(split[k].train), set(split[k].aux)
            assert not train & aux
            assert train | aux == set(plan.client_indices[k])

    def test_single_example_client_degenerates(self, caplog):
        plan = PartitionPlan(((0,), (1, 2, 3, 4)))
        data = Dataset([[0.0], [1.0], [2.0], [3.0], [4.0]], [0, 0, 0, 0, 0], 1)
        with caplog.at_level("WARNING"):
            split = split_auxiliary(data, plan, 0.2, seed=16)
        assert split[0].aux.tolist() == [0]
        assert split[0].train.tolist() == [0]
        assert any("single example" in r.message for r in caplog.records)


class TestPlanInvariantsAndDeterminism:
    @pytest.mark.parametrize("partition", [
        lambda data, n: partition_iid(data, n, 1),
        lambda data, n: partition_label_skew(data, n, 1, 1),
        lambda data, n: partition_dirichlet(data, n, 0.5, 1),
    ], ids=["iid", "label_skew", "dirichlet"])
    @pytest.mark.parametrize("num_clients", [0, -1])
    def test_every_scheme_rejects_fewer_than_one_client(self, partition, num_clients):
        with pytest.raises(ValueError):
            partition(gen_synthetic_blobs(3, 2, 4, 1.0, seed=20), num_clients)

    def test_all_schemes_produce_valid_plans(self):
        data = gen_synthetic_blobs(5, 3, 40, 1.0, seed=20)
        for seed in range(10):
            plans = [
                partition_iid(data, 4, seed),
                partition_label_skew(data, 4, 2, seed),
                partition_dirichlet(data, 4, 0.5, seed),
            ]
            for plan in plans:
                seen = set()
                for idx in plan.client_indices:
                    assert len(idx), "client left empty"
                    assert not seen & set(idx)
                    assert all(0 <= i < len(data) for i in idx)
                    seen.update(idx)

    def test_plan_checks_name_empty_client_and_lowest_shared_index(self):
        with pytest.raises(PartitionError, match="client 1 received no examples"):
            PartitionPlan(((0, 1), ()))
        with pytest.raises(PartitionError, match="index 2 assigned to multiple clients"):
            PartitionPlan(((5, 3, 2), (3, 2)))

    def test_index_sets_are_read_only_int64_arrays(self):
        data = gen_synthetic_blobs(4, 3, 20, 1.0, seed=23)
        plan = partition_dirichlet(data, 3, 0.5, seed=1)
        split = split_auxiliary(data, plan, 0.2, seed=1)
        for idx in (*plan.client_indices, *(c.train for c in split), *(c.aux for c in split)):
            assert idx.dtype == np.int64 and not idx.flags.writeable
            assert np.all(np.diff(idx) > 0)

    def test_determinism_identical_index_arrays(self):
        data = gen_synthetic_blobs(4, 3, 50, 1.0, seed=21)
        for build in (
            lambda s: partition_iid(data, 3, s),
            lambda s: partition_label_skew(data, 3, 2, s),
            lambda s: partition_dirichlet(data, 3, 0.3, s),
        ):
            a, b = build(7), build(7)
            assert len(a.client_indices) == len(b.client_indices)
            assert all(np.array_equal(x, y) for x, y in zip(a.client_indices, b.client_indices))


def test_unbenched_draws_reproduce_their_digest():
    """Dirichlet with empty-client top-ups, its aux splits and the IDX subsample.

    The bench digests cover only iid and label-skew runs; this pins the index
    sets of the other draws. Seed 3 leaves three of the nine clients empty
    before the top-up. The subsample's features are the row numbers, so the
    kept rows are its first column.
    """
    data = gen_synthetic_blobs(5, 3, 40, 1.0, seed=22)
    plan = partition_dirichlet(data, 9, 0.05, seed=3)
    splits = [split_auxiliary(data, plan, f, seed=3) for f in (0.1, 0.2, 0.37)]
    rows = Dataset(np.arange(len(data), dtype=np.float64)[:, None], data.labels, data.num_classes)
    kept = [_stratified_subsample(rows, f, seed=5).features[:, 0] for f in (0.25, 0.37)]
    index_sets = list(plan.client_indices)
    for split in splits:
        index_sets += [*(c.train for c in split), *(c.aux for c in split)]
    index_sets += kept
    payload = json.dumps([np.asarray(idx, dtype=np.int64).tolist() for idx in index_sets])
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "e688ec0b841f233682e38e08f448ca654ab56ca99184ae3c13119a53c57ebc68"
    )
