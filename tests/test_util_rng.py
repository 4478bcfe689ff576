"""Tests for the deterministic RNG plumbing."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import rng as rng_module
from repro.util.rng import (
    Categorical,
    RosterStreams,
    SeedSequenceFactory,
    categorical,
    coerce_rng,
    derive_random,
    derive_rng,
    roster_stream,
    spawn_seed,
)


class TestSpawnSeed:
    def test_deterministic(self):
        assert spawn_seed(42, "alpha") == spawn_seed(42, "alpha")

    def test_label_changes_seed(self):
        assert spawn_seed(42, "alpha") != spawn_seed(42, "beta")

    def test_root_changes_seed(self):
        assert spawn_seed(1, "alpha") != spawn_seed(2, "alpha")

    def test_fits_in_64_bits(self):
        seed = spawn_seed(2**62, "big")
        assert 0 <= seed < 2**64


class TestDeriveRng:
    def test_reproducible_streams(self):
        a = derive_rng(7, "x").uniform(size=5)
        b = derive_rng(7, "x").uniform(size=5)
        np.testing.assert_array_equal(a, b)

    def test_independent_streams(self):
        a = derive_rng(7, "x").uniform(size=5)
        b = derive_rng(7, "y").uniform(size=5)
        assert not np.allclose(a, b)

    def test_derive_random_stdlib(self):
        r1 = derive_random(7, "x")
        r2 = derive_random(7, "x")
        assert [r1.random() for _ in range(3)] == [r2.random() for _ in range(3)]


class TestRosterStreams:
    @given(st.integers(0, 2**63 - 1), st.integers(1, 40), st.integers(1, 9),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_slot_stream_is_the_spawned_child(
        self, entropy, slots, batch, random_source
    ):
        """Slot i's stream draws what child i of ``spawn(slots)`` draws,
        whatever the batch size and the order the slots are asked in."""
        children = np.random.SeedSequence(entropy).spawn(slots)
        order = list(range(slots))
        random_source.shuffle(order)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng_module, "ROSTER_STREAM_BATCH", batch)
            streams = RosterStreams(entropy, slots)
            for index in order:
                np.testing.assert_array_equal(
                    streams[index].random(4),
                    np.random.default_rng(children[index]).random(4),
                )

    @given(st.integers(0, 2**63 - 1), st.integers(1, 40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roster_stream_is_the_spawned_child(self, entropy, slots, data):
        """``roster_stream(entropy, i)`` draws what child i of
        ``spawn(slots)`` draws: a process-pool worker and the serial run
        give slot i the same stream."""
        index = data.draw(st.integers(0, slots - 1))
        child = np.random.SeedSequence(entropy).spawn(slots)[index]
        np.testing.assert_array_equal(
            roster_stream(entropy, index).random(4),
            np.random.default_rng(child).random(4),
        )


class TestSeedSequenceFactory:
    def test_same_label_twice_gives_fresh_stream(self):
        factory = SeedSequenceFactory(11)
        first = factory.rng("behavior").uniform(size=3)
        second = factory.rng("behavior").uniform(size=3)
        assert not np.allclose(first, second)

    def test_two_factories_agree(self):
        a = SeedSequenceFactory(11)
        b = SeedSequenceFactory(11)
        np.testing.assert_array_equal(
            a.rng("j").uniform(size=3), b.rng("j").uniform(size=3)
        )

    def test_child_factory_differs_from_parent(self):
        factory = SeedSequenceFactory(11)
        child = factory.child("sub")
        assert child.root_seed != factory.root_seed

    def test_seed_method_counts_occurrences(self):
        factory = SeedSequenceFactory(11)
        assert factory.seed("s") != factory.seed("s")


class TestCoerceRng:
    def test_passthrough(self):
        generator = np.random.default_rng(0)
        assert coerce_rng(generator) is generator

    def test_seed_used_when_no_rng(self):
        a = coerce_rng(None, 5).uniform()
        b = coerce_rng(None, 5).uniform()
        assert a == b

    def test_defaults_to_zero_seed(self):
        a = coerce_rng(None, None).uniform()
        b = coerce_rng(None, 0).uniform()
        assert a == b


seeds = st.integers(0, 2**64 - 1)


def normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


#: 2-12 weights, some of them zero, normalized the way callers normalize.
weight_lists = (
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=2, max_size=12
    )
    .filter(lambda weights: sum(weights) > 0)
    .map(normalized)
)

#: numpy's tolerance on the weights' sum.
TOLERANCE = math.sqrt(sys.float_info.epsilon)


@st.composite
def near_tolerance(draw):
    """Normalized weights with one weight moved by up to 3x the tolerance,
    so the sum lands on either side of it."""
    weights = draw(weight_lists)
    i = draw(st.integers(0, len(weights) - 1))
    weights[i] += draw(st.floats(-3 * TOLERANCE, 3 * TOLERANCE))
    return weights


def outcome(draw):
    """``("error",)`` for a ``ValueError``, else ``("drew", value)``."""
    try:
        return ("drew", draw())
    except ValueError:
        return ("error",)


class TestCategorical:
    """``categorical`` and ``Categorical.draw`` are
    ``Generator.choice(options, p=weights)``: the same option from the same
    double, leaving the stream in the same place."""

    @settings(deadline=None)
    @given(weight_lists, seeds)
    def test_per_call_draw_is_choice(self, weights, seed):
        options = [f"option-{i}" for i in range(len(weights))]
        numpy_rng = np.random.default_rng(seed)
        ours = np.random.default_rng(seed)
        expected = numpy_rng.choice(options, p=weights)
        assert categorical(ours, options, weights) == expected
        assert ours.random() == numpy_rng.random()

    @settings(deadline=None)
    @given(weight_lists, seeds)
    def test_table_draw_is_choice(self, weights, seed):
        options = tuple(range(len(weights)))
        table = Categorical(options, weights)
        numpy_rng = np.random.default_rng(seed)
        ours = np.random.default_rng(seed)
        for _ in range(3):
            assert table.draw(ours) == numpy_rng.choice(options, p=weights)
        assert ours.random() == numpy_rng.random()

    @pytest.mark.parametrize("u, expected", [(0.0, "b"), (0.25, "b"), (0.5, "d")])
    def test_a_double_on_a_step_goes_right(self, u, expected):
        """A double equal to a CDF step picks the option after it, as
        ``searchsorted(side="right")`` does: zero-weight options are never
        drawn, even by a double of exactly 0.0."""

        class Fixed:
            def random(self):
                return u

        weights = (0.0, 0.5, 0.0, 0.5)
        cdf = np.cumsum(weights)
        assert "abcd"[int(cdf.searchsorted(u, side="right"))] == expected
        assert categorical(Fixed(), "abcd", weights) == expected
        assert Categorical("abcd", weights).draw(Fixed()) == expected

    @settings(deadline=None)
    @given(seeds)
    def test_random_is_uniform(self, seed):
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        assert [a.uniform() for _ in range(5)] == [b.random() for _ in range(5)]

    @pytest.mark.parametrize(
        "options, weights",
        [
            ("ab", (1.5, -0.5)),
            ("ab", (float("nan"), 1.0)),
            ("abc", (0.5, 0.5)),
            ("ab", (0.5, 0.5, 0.0)),
            ("", ()),
            ("ab", (0.5, 0.5 + 2 * TOLERANCE)),
            ("ab", (0.5, 0.5 - 2 * TOLERANCE)),
            ("ab", (float("inf"), 1.0)),
        ],
        ids=[
            "negative", "nan", "too-few-weights", "too-many-weights", "empty",
            "sum-high", "sum-low", "infinite",
        ],
    )
    def test_bad_weights_raise_like_choice(self, options, weights):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(list(options), p=weights)
        with pytest.raises(ValueError):
            categorical(np.random.default_rng(0), options, weights)
        with pytest.raises(ValueError):
            Categorical(options, weights)

    @settings(deadline=None)
    @given(
        st.one_of(
            near_tolerance(),
            st.lists(
                st.one_of(st.floats(-1.0, 2.0), st.just(float("nan"))), max_size=6
            ),
        ),
        st.integers(0, 2),
        seeds,
    )
    def test_accepts_and_rejects_what_choice_does(self, weights, extra, seed):
        """Near the sum tolerance, with negatives, NaNs and a length
        mismatch: a ``ValueError`` exactly where numpy raises one, and the
        same draw everywhere else."""
        options = list(range(max(len(weights) - 1 + extra, 0)))
        expected = outcome(
            lambda: np.random.default_rng(seed).choice(options, p=weights)
        )
        assert outcome(
            lambda: categorical(np.random.default_rng(seed), options, weights)
        ) == expected
        assert outcome(
            lambda: Categorical(options, weights).draw(np.random.default_rng(seed))
        ) == expected


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def slow_draws(tree):
    """``(line, form)`` for each draw in ``tree`` that pays numpy's per-call
    overhead where a bit-identical cheap form exists: ``.choice(..., p=...)``
    (use :func:`categorical` or :class:`Categorical`), an argument-less
    ``.uniform()`` (use ``.random()``) and ``float(np.clip(...))`` or
    ``int(np.clip(...))`` on a scalar (use ``min(max(...))``)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Attribute, ast.Name)):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        if name == "choice" and any(k.arg == "p" for k in node.keywords):
            found.append((node.lineno, "choice(p=)"))
        elif name == "uniform" and not node.args and not node.keywords:
            found.append((node.lineno, "uniform()"))
        elif name in ("float", "int") and len(node.args) == 1:
            inner = node.args[0]
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr == "clip"
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id in ("np", "numpy")
            ):
                found.append((node.lineno, "scalar np.clip"))
    return found


class TestNoSlowDrawForms:
    def test_package_uses_the_cheap_forms(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path == SRC / "util" / "rng.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders += [
                (str(path.relative_to(SRC)), line, form)
                for line, form in slow_draws(tree)
            ]
        assert offenders == []

    @pytest.mark.parametrize(
        "source",
        [
            "rng.choice(OPTIONS, p=WEIGHTS)",
            "str(generator.choice(('a', 'b'), p=(0.5, 0.5)))",
            "rng.uniform() < 0.5",
            "float(np.clip(x, 0.0, 1.0))",
            "int(numpy.clip(x, 1, 5))",
        ],
    )
    def test_each_slow_form_is_caught(self, source):
        assert len(slow_draws(ast.parse(source))) == 1

    @pytest.mark.parametrize(
        "source",
        [
            "rng.choice(OPTIONS)",
            "rng.uniform(0.0, 1.0)",
            "rng.uniform(size=3)",
            "np.clip(values, 0.0, 1.0)",
            "rng.random() < 0.5",
        ],
    )
    def test_other_forms_pass(self, source):
        assert slow_draws(ast.parse(source)) == []
