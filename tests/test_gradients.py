"""Backward-pass semantics, Adam behavior, and finite-difference checks."""

import functools
import inspect
import os
import select
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from segnetr import autodiff
from segnetr.autodiff import (
    Adam,
    Parameter,
    Tensor,
    backward,
    batch_norm,
    batch_norm_silu,
    concat,
    conv2d,
    functional,
    grad_check,
    gradcheck,
    linear,
    softmax,
    sum_,
    tensor,
)
import segnetr.verify
from segnetr.autodiff.tensor import _make_output, no_grad
from segnetr.errors import ContractError
from segnetr.verify import _MODULE_CASES, AFFINE_TOL, GENERAL_TOL, _t, op_cases

from .oracles import adam_naive


def t64(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=rg)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.random.default_rng(0).standard_normal((3, 4)))
        backward(sum_(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_closed_form(self):
        x = t64([1.0, 2.0])
        backward(sum_(x * x))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-12)

    def test_fan_out_accumulates(self):
        x = t64(np.ones((2, 2)))
        backward(sum_(x) + sum_(x))
        np.testing.assert_array_equal(x.grad, np.full((2, 2), 2.0))

    def test_non_scalar_loss_rejected(self):
        x = t64(np.ones(3))
        with pytest.raises(ContractError):
            backward(x * x)

    def test_untracked_leaf_gets_no_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=False, dtype=np.float64)
        w = t64(np.full((2, 2), 3.0))
        backward(sum_(x * w))
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, np.ones((2, 2)))

    def test_graph_cleared_after_backward(self):
        x = t64(np.ones(4))
        h = x * x
        loss = sum_(h)
        assert h._node is not None and loss._node is not None
        backward(loss)
        assert h._node == [] and loss._node == []  # emptied, so their arrays are freed

    def test_saved_arrays_freed_during_backward(self):
        # a later op's saved array is gone by the time an earlier op's rule runs
        x = t64(np.ones(4))
        saved = np.arange(4.0)
        saved_ref = weakref.ref(saved)
        freed_when_earlier_rule_ran = []

        def earlier_rule(g):
            freed_when_earlier_rule_ran.append(saved_ref() is None)
            return (g,)

        h = _make_output(x.data * 2.0, (x,), earlier_rule)
        later = _make_output(h.data * saved, (h,), lambda g, s=saved: (g * s,))
        loss = sum_(later)
        del saved, h, later
        assert saved_ref() is not None
        backward(loss)
        assert freed_when_earlier_rule_ran == [True]
        assert loss._node == []
        np.testing.assert_array_equal(x.grad, np.arange(4.0))

    def test_output_no_rule_keeps_dies_while_the_loss_is_pending(self):
        # sum_ keeps only shapes, and a record keeps its inputs' records,
        # not their arrays
        x, y = t64(np.ones(4)), t64(np.full(4, 2.0))
        h = x + y
        h_data = weakref.ref(h.data)
        loss = sum_(h)
        del h
        assert h_data() is None
        assert loss._node
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones(4))

    def test_no_grad_records_nothing(self):
        x = t64(np.ones(4))
        with no_grad():
            y = x * x + x
        assert y._node is None
        assert y.grad is None

    def test_no_grad_in_another_thread_leaves_this_one_recording(self):
        entered, release, unrecorded = threading.Event(), threading.Event(), []

        def hold_no_grad():
            with no_grad():
                unrecorded.append((t64(np.ones(2)) * 2.0)._node)
                entered.set()
                release.wait(10)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(10)
            x = t64(np.ones(3))
            loss = sum_(x * x)
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        backward(loss)
        assert unrecorded == [None]
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_threads_record_and_backward_independently(self):
        # each thread builds and backpropagates its own graphs while the
        # others enter and leave no_grad, with a thread switch forced at
        # almost every bytecode; a grad mode shared across threads drops
        # gradients here
        errors = []

        def work(k):
            try:
                for _ in range(50):
                    with no_grad():
                        assert (t64(np.ones(2)) * 2.0)._node is None
                    x = t64(np.full(3, float(k)))
                    backward(sum_(x * x + x))
                    np.testing.assert_array_equal(x.grad, np.full(3, 2.0 * k + 1.0))
            except Exception as exc:  # an assertion failing in a thread does not fail the test
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_parameter_used_twice_gets_both_contributions(self):
        rng = np.random.default_rng(5)
        x1, x2 = rng.standard_normal((2, 3, 4, 4)), rng.standard_normal((2, 3, 4, 4))
        g1, g2 = rng.standard_normal((2, 5, 4, 4)), rng.standard_normal((2, 5, 4, 4))
        w = t64(rng.standard_normal((5, 3, 1, 1)))

        def loss(*pairs):
            return sum_(concat([conv2d(t64(x, rg=False), w) * t64(g, rg=False) for x, g in pairs], axis=0))

        separate = []
        for pair in ((x1, g1), (x2, g2)):
            w.zero_grad()
            backward(loss(pair))
            separate.append(w.grad)
        w.zero_grad()
        backward(loss((x1, g1), (x2, g2)))
        np.testing.assert_array_equal(w.grad, separate[0] + separate[1])

    def test_leaf_grad_is_not_shared(self):
        # add passes one gradient array to both operands, and the backward
        # sweep reaches x + y before sum_(x); each leaf must get its own copy,
        # so neither a later contribution nor an in-place edit of the
        # returned grad reaches the other leaf or a later graph
        x, y = t64(np.ones(3)), t64(np.ones(3))
        backward(sum_(x) + sum_(x + y))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(y.grad, np.ones(3))
        y.grad *= 7.0
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        x.zero_grad()
        y.zero_grad()
        backward(sum_(x) + sum_(x + y))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        np.testing.assert_array_equal(y.grad, np.ones(3))

    def test_grad_accumulates_across_backward_calls(self):
        x = t64(np.ones(3))
        backward(sum_(x))
        backward(sum_(x))
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_consumed_graph_raises(self):
        # l2 reuses h, whose record backward(l1) consumed; l2's backward must
        # say so before any rule runs, instead of adding only the gradient
        # of its own ops
        x = t64(np.ones(3))
        h = x * x
        backward(sum_(h))
        l2 = sum_(h + x)
        with pytest.raises(ContractError, match="consumed"):
            backward(l2)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        assert l2._node is not None

    def test_independent_pending_graphs_both_take_gradients(self):
        x = t64(np.ones(3))
        l1, l2 = sum_(x * x), sum_(x * 3.0)
        backward(l1)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
        backward(l2)
        np.testing.assert_array_equal(x.grad, np.full(3, 5.0))

    def test_repeated_backward_raises(self):
        x = t64(np.ones(3))
        loss = sum_(x * x)
        backward(loss)
        with pytest.raises(ContractError):
            backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_raise_leaves_pending_graph_intact(self):
        x = t64(np.ones(3))
        stale = sum_(x * x)
        backward(stale)
        live = sum_(x * 3.0)
        x.zero_grad()
        with pytest.raises(ContractError):
            backward(stale)
        assert live._node is not None
        backward(live)
        np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


class TestAdam:
    def test_missing_gradient_leaves_parameter_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]))
        before = p.data.copy()
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, before)

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        Adam([p], lr=0.1).step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_bounded_by_lr(self):
        rng = np.random.default_rng(1)
        p = Parameter(rng.standard_normal(16))
        before = p.data.copy()
        p.grad = rng.standard_normal(16) * 10.0
        Adam([p], lr=1e-3).step()
        assert np.all(np.abs(p.data - before) <= 1e-3 * (1.0 + 1e-6))

    def test_three_steps_on_quadratic_shrink_x(self):
        p = Parameter(np.array(1.0))
        opt = Adam([p], lr=0.1)
        magnitudes = [abs(float(p.data))]
        for _ in range(3):
            opt.zero_grad()
            backward(p * p)
            opt.step()
            magnitudes.append(abs(float(p.data)))
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))

    def test_matches_scalar_simulation(self):
        grads = [2.0, -0.7, 0.3, 1.1]
        p = Parameter(np.array(1.0))
        opt = Adam([p], lr=0.05)
        got = []
        for g in grads:
            p.grad = np.array(g)
            opt.step()
            got.append(float(p.data))
        np.testing.assert_allclose(got, adam_naive(1.0, grads, lr=0.05), rtol=1e-6)

    def test_step_counter_increments(self):
        p = Parameter(np.array(1.0))
        opt = Adam([p])
        for want in (1, 2, 3):
            p.grad = np.array(1.0)
            opt.step()
            assert opt.state.step == want


class TestGradCheckExamples:
    def test_linear_is_exact(self):
        rng = np.random.default_rng(2)
        res = grad_check(
            linear,
            [t64(rng.standard_normal((4, 6))), t64(rng.standard_normal((3, 6))), t64(rng.standard_normal(3))],
        )
        assert res.max_rel_error < 1e-9
        assert len(res.per_input) == 3

    def test_softmax(self):
        res = grad_check(lambda x: softmax(x, axis=-1), [t64(np.random.default_rng(3).standard_normal((4, 5)))])
        assert res.max_rel_error < 1e-6

    def test_conv2d(self):
        rng = np.random.default_rng(4)
        res = grad_check(
            lambda x, w, b: conv2d(x, w, b, padding=1),
            [t64(rng.standard_normal((1, 2, 5, 5))), t64(rng.standard_normal((3, 2, 3, 3))), t64(rng.standard_normal(3))],
        )
        assert res.max_rel_error < 1e-6


def _assert_cases_pass(cases):
    for name, tol, fn, inputs in cases:
        res = grad_check(fn, inputs)
        assert res.max_rel_error < tol, f"{name}: {res.max_rel_error:.3e} >= {tol:g}"


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_finite_differences(seed):
    _assert_cases_pass(op_cases(np.random.default_rng(seed + 100)))


def _producer_chains(rng):
    """Producer → consumer pairs the MBConv runs: a conv reading a norm's or
    a gate's output, and norms reading a 1×1 conv's.  A rule that wrote into
    an array its neighbour's rule keeps would fail here."""
    t = functools.partial(_t, rng)
    rm, rv = np.zeros(4), np.ones(4)
    return [
        ("batch_norm_silu → conv2d depthwise", GENERAL_TOL, lambda x, g, b, w: conv2d(batch_norm_silu(x, g, b, rm.copy(), rv.copy()), w, padding=1, groups=4), [t(3, 4, 4, 5), t(4, scale=0.2, shift=1.0), t(4, scale=0.2), t(4, 1, 3, 3, scale=0.5)]),
        ("mul gate → conv2d 1x1", AFFINE_TOL, lambda h, gate, w: conv2d(h * gate, w), [t(2, 4, 3, 5), t(2, 4, 1, 1), t(3, 4, 1, 1, scale=0.5)]),
        ("conv2d 1x1 → batch_norm_silu → conv2d depthwise", GENERAL_TOL,
         lambda x, w, g, b, dw: conv2d(batch_norm_silu(conv2d(x, w), g, b, rm.copy(), rv.copy()), dw, padding=1, groups=4),
         [t(3, 2, 4, 5), t(4, 2, 1, 1, scale=0.5), t(4, scale=0.2, shift=1.0), t(4, scale=0.2), t(4, 1, 3, 3, scale=0.5)]),
        ("conv2d 1x1 → batch_norm", GENERAL_TOL, lambda x, w, g, b: batch_norm(conv2d(x, w), g, b, rm.copy(), rv.copy(), True),
         [t(3, 2, 4, 4), t(4, 2, 1, 1, scale=0.5), t(4, scale=0.2, shift=1.0), t(4, scale=0.2)]),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_recipe_chains_pass_finite_differences(seed):
    _assert_cases_pass(_producer_chains(np.random.default_rng(seed + 100)))


def _exported_ops():
    """Every function ``segnetr.autodiff`` exports from its op modules but
    ``backward``, which records nothing, and the ops behind ``Tensor``'s
    ``+``, ``-`` and ``*``."""
    ops = {name: getattr(autodiff, name) for name in autodiff.__all__}
    ops = {
        name: op for name, op in ops.items()
        if inspect.isfunction(op) and op.__module__ in (functional.__name__, tensor.__name__)
    }
    del ops["backward"]
    return ops | {"add": tensor.add, "sub": tensor.sub, "mul": tensor.mul}


def test_every_exported_op_is_run_by_an_op_case(monkeypatch):
    # an op runs when its frame is on the stack of a node being recorded;
    # global_avg_pool records none of its own, its mean does, and checkpoint
    # runs in the segnetr block module case, whose ops it calls
    on_stack, original = set(), tensor._make_output

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            on_stack.add(frame.f_code)
            frame = frame.f_back
        return original(*args, **kwargs)

    for module in (tensor, functional):
        monkeypatch.setattr(module, "_make_output", recording)
    rng = np.random.default_rng(0)
    cases = op_cases(rng) + [(name, tol, *build(rng)) for name, tol, build in _MODULE_CASES]
    for _, _, fn, inputs in cases:
        fn(*inputs)
    names = [name for name, *_ in cases]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert sorted(name for name, op in _exported_ops().items() if op.__code__ not in on_stack) == []


def _suite_check_results(monkeypatch, seed):
    """The GradCheckResult of every gradient_suite case, in order."""
    seen = []

    def recording(fn, inputs):
        seen.append(gradcheck.grad_check(fn, inputs))
        return seen[-1]

    monkeypatch.setattr(segnetr.verify, "grad_check", recording)
    segnetr.verify.gradient_suite(seed)
    return seen


def _square_sum(x):
    return sum_(x * x)


class TestWorkerSplit:
    """A check of at least PARALLEL_MIN_COORDS coordinates shares them among
    forked workers, which take chunks from one queue; its result and its
    errors are the in-process loop's."""

    @pytest.fixture()
    def two_cores(self, monkeypatch):
        # two usable cores whatever the host has, so the split always runs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture()
    def forks(self, monkeypatch):
        calls = []
        real = os.fork

        def counting_fork():
            calls.append(os.getpid())
            return real()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    @pytest.fixture()
    def worker_began(self):
        """(began, wait): a worker calls began() when it evaluates fn, and
        the parent's wait() returns once one has, so a parent that waits
        cannot take every chunk itself."""
        read_fd, write_fd = os.pipe()

        def wait():
            assert select.select([read_fd], [], [], 60)[0], "no worker evaluated fn"

        yield lambda: os.write(write_fd, b"."), wait
        os.close(read_fd)
        os.close(write_fd)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_suite_results_equal_the_in_process_loop(self, seed, monkeypatch, two_cores, forks):
        split = _suite_check_results(monkeypatch, seed)
        assert forks
        monkeypatch.setattr(gradcheck, "PARALLEL_MIN_COORDS", 10**9)
        n_forks = len(forks)
        serial = _suite_check_results(monkeypatch, seed)
        assert len(forks) == n_forks
        assert split == serial
        self.assert_no_child_left()

    def test_exception_raised_only_in_a_worker_reaches_the_caller(self, two_cores, forks, worker_began):
        parent = os.getpid()
        began, wait = worker_began

        def fn(x):
            if os.getpid() != parent:
                began()
                raise ValueError("raised in a worker")
            if np.any(x.data != 1):
                wait()
            return _square_sum(x)

        with pytest.raises(ValueError, match="^raised in a worker$"):
            grad_check(fn, [t64(np.ones(256))])
        assert forks
        self.assert_no_child_left()

    def test_first_failing_coordinate_raises_as_in_the_loop(self, monkeypatch, two_cores):
        # either process may take either coordinate; the loop meets 5 first
        def fn(x):
            moved = np.flatnonzero(x.data)
            if moved.size and moved[0] in (5, 130):
                raise ValueError(f"coordinate {moved[0]}")
            return _square_sum(x)

        with pytest.raises(ValueError, match="^coordinate 5$"):
            grad_check(fn, [t64(np.zeros(256))])
        self.assert_no_child_left()
        monkeypatch.setattr(gradcheck, "PARALLEL_MIN_COORDS", 10**9)
        with pytest.raises(ValueError, match="^coordinate 5$"):
            grad_check(fn, [t64(np.zeros(256))])

    @pytest.mark.parametrize("split", [False, True], ids=["in process", "split"])
    def test_input_restored_when_fn_raises(self, monkeypatch, two_cores, split):
        # a perturbation of the caller's own input is undone on the way out;
        # a worker's dies with it, so the split case retries until the
        # caller's process took coordinate 3 (a worker sleeps at its first
        # call, so the caller almost always does at once)
        if not split:
            monkeypatch.setattr(gradcheck, "PARALLEL_MIN_COORDS", 10**9)
        parent = os.getpid()
        for _ in range(20):
            took_3, slept = [], []

            def fn(x):
                if os.getpid() != parent and not slept:
                    slept.append(True)
                    time.sleep(0.05)
                if x.data[3] != 0:
                    if os.getpid() == parent:
                        took_3.append(True)
                    raise ValueError("coordinate 3")
                return _square_sum(x)

            x = t64(np.zeros(256))
            with pytest.raises(ValueError, match="^coordinate 3$"):
                grad_check(fn, [x])
            np.testing.assert_array_equal(x.data, np.zeros(256))
            self.assert_no_child_left()
            if took_3:
                break
        assert took_3

    @pytest.mark.parametrize("split", [False, True], ids=["in process", "split"])
    def test_nan_gradient_fails_the_check(self, monkeypatch, two_cores, forks, split):
        # Python's max(0.0, nan) is 0.0, so a worst error taken by it passes
        # a rule that returns NaN everywhere
        if not split:
            monkeypatch.setattr(gradcheck, "PARALLEL_MIN_COORDS", 10**9)

        def fn(x):
            doubled = _make_output(x.data * 2.0, (x,), lambda g: (np.full_like(g, np.nan),))
            return _square_sum(doubled)

        res = grad_check(fn, [t64(np.ones(256))])
        assert bool(forks) == split
        assert np.isnan(res.max_rel_error) and np.isnan(res.per_input[0])
        assert not res.ok(segnetr.verify.GENERAL_TOL)
        self.assert_no_child_left()

    def test_worker_that_dies_raises_naming_its_exit_status(self, two_cores, worker_began):
        parent = os.getpid()
        began, wait = worker_began

        def fn(x):
            if os.getpid() != parent:
                began()
                os._exit(3)
            if np.any(x.data != 1):
                wait()
            return _square_sum(x)

        with pytest.raises(ChildProcessError, match="exited with status 3 and no result"):
            grad_check(fn, [t64(np.ones(256))])
        self.assert_no_child_left()

    def test_slow_worker_does_not_hold_up_the_check(self, monkeypatch, two_cores, forks):
        # a fixed half of 256 coordinates would keep this worker busy for 5 s;
        # taking chunks from the queue, it does one or two while the parent
        # does the rest
        parent = os.getpid()
        x = t64(np.random.default_rng(6).standard_normal(256))

        def fn(xx):
            if os.getpid() != parent:
                time.sleep(0.02)
            return _square_sum(xx)

        started = time.perf_counter()
        split = grad_check(fn, [x])
        assert time.perf_counter() - started < 2
        assert forks
        self.assert_no_child_left()
        monkeypatch.setattr(gradcheck, "PARALLEL_MIN_COORDS", 10**9)
        assert grad_check(fn, [x]) == split

    def test_interrupt_kills_and_reaps_the_running_worker(self, two_cores):
        parent = os.getpid()

        def fn(x):
            if os.getpid() != parent:
                time.sleep(0.05)  # 128 coordinates would keep it busy for 12 s
            elif np.any(x.data):
                raise KeyboardInterrupt
            return _square_sum(x)

        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            grad_check(fn, [t64(np.zeros(256))])
        self.assert_no_child_left()
        assert time.perf_counter() - started < 5

    def test_unflushed_output_is_written_once(self):
        script = (
            "import os, sys\n"
            "import numpy as np\n"
            "from segnetr.autodiff import Tensor, grad_check, sum_\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, real_fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "sys.stdout.write('marker\\n')\n"
            "x = Tensor(np.ones(256), requires_grad=True, dtype=np.float64)\n"
            "grad_check(lambda x: sum_(x * x), [x])\n"
            "sys.stdout.write(f'forks {len(forks)}\\n')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)  # the marker must stay in the buffer
        done = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "marker\nforks 1\n"

    def test_no_fork_while_another_thread_runs(self, two_cores, forks):
        x = t64(np.random.default_rng(5).standard_normal(256))
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = grad_check(_square_sum, [x])
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert not forks
        assert grad_check(_square_sum, [x]) == threaded
        assert forks
