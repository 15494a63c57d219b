"""Model assembly tests: config validation, shape laws, determinism."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from segnetr.autodiff import Module, Tensor, backward, cross_entropy, grad_check, no_grad
from segnetr.blocks import BatchNorm2d, SegnetrBlock
from segnetr.costs import cost_report, count_params
from segnetr.errors import ConfigError, ShapeError
from segnetr.data import gen_synthetic
from segnetr.model import INTERACTION_MODES, MiniUnet, ModelConfig, SegnetrModel, build, stage_extents
from segnetr.training import predict, toy_config
from segnetr.verify import GENERAL_TOL

from .conftest import forward_macs, graph_nodes, graph_saved_bytes, perturb_state

SMALL = dict(base_channels=4, resolution=32, num_classes=2, seed=3)


def small_cfg(**over):
    kw = {**SMALL, **over}
    return ModelConfig(**kw)


def rand_input(n=2, res=32, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal((n, 3, res, res)).astype(np.float32))


class TestModelConfig:
    def test_variant_defaults(self):
        assert ModelConfig().base_channels == 64
        assert ModelConfig(variant="segnetr-s").base_channels == 32
        assert ModelConfig().channels == (64, 128, 256, 512)
        # the four stages, then the bottleneck after the last merge
        assert stage_extents(224, 224, ModelConfig().patch_schedule) == (
            (112, 112), (56, 56), (28, 28), (14, 14), (7, 7))

    def test_json_round_trip(self):
        cfg = small_cfg(interaction_mode="series", skip_mode="concat")
        again = ModelConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_json_schema_keys(self):
        keys = set(json.loads(ModelConfig().to_json()))
        assert keys == {
            "variant", "base_channels", "patch_schedule", "interaction_mode",
            "skip_mode", "num_classes", "resolution", "depths", "seed",
        }

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ModelConfig.from_json('{"variant": "segnetr", "dropout": 0.5}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_json("{not json")
        with pytest.raises(ConfigError):
            ModelConfig.from_json("[1, 2]")

    @pytest.mark.parametrize("field,value", [
        ("variant", "resnet"),
        ("base_channels", 5),
        ("interaction_mode", "both"),
        ("skip_mode", "add"),
        ("num_classes", 1),
        ("depths", (1, 1, 1)),
        ("resolution", 40),
        ("patch_schedule", (3, 4, 2, 1)),
        ("patch_schedule", (8, 4, 2)),
    ])
    def test_validation_rejects(self, field, value):
        cfg = small_cfg()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("field,value", [
        ("variant", ["segnetr"]),
        ("base_channels", "8"),
        ("base_channels", 8.0),
        ("num_classes", 2.0),
        ("num_classes", True),
        ("depths", 3),
        ("depths", (1, 1, 1.0, 1)),
        ("resolution", "224"),
        ("patch_schedule", (8, 4, 2, "1")),
        ("patch_schedule", "8421"),
        ("seed", -3),
        ("seed", 1.5),
        ("seed", True),
        ("seed", None),
    ])
    def test_validation_names_wrongly_typed_field(self, field, value):
        cfg = ModelConfig.from_json(json.dumps({**SMALL, field: value}))
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            cfg.validate()

    def test_numpy_integers_accepted(self):
        small_cfg(seed=np.int64(3), resolution=np.int64(32)).validate()

    def test_resolution_56_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(resolution=56).validate()


class TestSegnetrModel:
    def test_forward_shape_law(self):
        model = SegnetrModel(small_cfg()).eval()
        out = model(rand_input(n=1))
        assert out.shape == (1, 2, 32, 32)

    def test_forward_shape_multiclass_batch(self):
        model = SegnetrModel(small_cfg(num_classes=5))
        assert model(rand_input(n=2, seed=1)).shape == (2, 5, 32, 32)

    def test_wrong_input_shape_rejected(self):
        model = SegnetrModel(small_cfg()).eval()
        for hw in [(24, 24), (31, 47)]:
            with pytest.raises(ShapeError):
                model(Tensor(np.zeros((1, 3) + hw, dtype=np.float32)))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))

    @pytest.mark.parametrize("variant", ["segnetr", "mini-unet"])
    def test_empty_batch_rejected(self, variant):
        model = build(small_cfg(variant=variant))
        with pytest.raises(ShapeError, match=r"^empty batch: input \(0, 3, 32, 32\)"):
            model(Tensor(np.zeros((0, 3, 32, 32), dtype=np.float32)))

    def test_build_rejects_bad_resolution(self):
        with pytest.raises(ConfigError):
            build(small_cfg(resolution=56))

    def test_same_seed_same_params_and_output(self):
        a, b = SegnetrModel(small_cfg()).eval(), SegnetrModel(small_cfg()).eval()
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)
        x = rand_input(n=1, seed=2)
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_different_seed_different_params(self):
        a = SegnetrModel(small_cfg(seed=1))
        b = SegnetrModel(small_cfg(seed=2))
        assert any(
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )

    @pytest.mark.parametrize("mode", ["without", "local", "global", "series", "parallel"])
    def test_interaction_mode_preserves_shape(self, mode):
        model = SegnetrModel(small_cfg(interaction_mode=mode))
        assert model(rand_input(seed=4)).shape == (2, 2, 32, 32)

    def test_fusion_weights_and_head_start_at_zero(self):
        """Assembled models ramp branch fusion from zero and open with flat
        logits; a standalone block keeps its 0.5 fusion init."""
        model = SegnetrModel(small_cfg())
        alphas = [p for n, p in model.named_parameters() if n.endswith(("alpha_local", "alpha_global"))]
        assert alphas and all(float(p.data) == 0.0 for p in alphas)
        np.testing.assert_array_equal(model.head.weight.data, 0.0)
        out = model(rand_input(seed=5))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_blocks_and_head_are_called_by_the_model(self, monkeypatch):
        # perfbench splits a traced forward into stages at the block spans
        # that are direct children of the model's span; a container call in
        # between would fold every stage into the stem's time
        depths = (2, 1, 1, 2)
        model = SegnetrModel(small_cfg(depths=depths)).eval()
        names = {}

        def walk(mod, dotted):
            names[id(mod)] = dotted
            for key, child in mod._modules.items():
                walk(child, f"{dotted}.{key}" if dotted else key)

        walk(model, "")
        stack, caller = [], {}
        original = Module.__call__

        def recording_call(mod, *args, **kwargs):
            # like perfbench's tracer, a module outside the tree opens no span
            name = names.get(id(mod))
            if name is None:
                return original(mod, *args, **kwargs)
            caller.setdefault(name, stack[-1] if stack else None)
            stack.append(name)
            try:
                return original(mod, *args, **kwargs)
            finally:
                stack.pop()

        monkeypatch.setattr(Module, "__call__", recording_call)
        model(rand_input(n=1))
        # decoder stage i runs at encoder stage 3 - i
        called = [f"encoder_stages.{s}.{b}" for s in range(4) for b in range(depths[s])]
        called += [f"decoder_stages.{i}.{b}" for i in range(4) for b in range(depths[3 - i])]
        called.append("head")
        assert {name: caller.get(name) for name in called} == dict.fromkeys(called, "")

    def test_odd_stage_resolution_round_trips(self):
        # 112 -> stage resolutions (56, 28, 14, 7); the 7x7 stage exercises
        # padded merges and the odd-grid displacement wrap.
        model = SegnetrModel(small_cfg(resolution=112))
        assert model(rand_input(res=112, seed=7)).shape == (2, 2, 112, 112)


class TestInputExtents:
    """The forward takes any (H, W) its patch schedule tiles, whatever
    ``cfg.resolution`` says; ``stage_extents`` is the one rule."""

    @pytest.mark.parametrize("hw", [(448, 224), (224, 448), (240, 176), (16, 16), (112, 112)])
    def test_output_extents_equal_input_extents(self, hw):
        x = Tensor(np.random.default_rng(3).standard_normal((1, 3) + hw).astype(np.float32))
        for over in (dict(), dict(variant="mini-unet", skip_mode="concat")):
            model = build(small_cfg(**over)).eval()
            with no_grad():
                assert model(x).shape == (1, 2) + hw, over

    def test_per_axis_stage_extents(self):
        # 240x176 ends in an odd 15x11 stage, which the padded merge handles
        assert stage_extents(240, 176, (8, 4, 2, 1)) == (
            (120, 88), (60, 44), (30, 22), (15, 11), (8, 6))

    @pytest.mark.parametrize("hw,message", [
        ((31, 47), "stem: input extents 31x47 must be even"),
        ((24, 24), "stage 0: patch size 8 does not divide its extents 12x12"),
        ((100, 100), "stage 0: patch size 8 does not divide its extents 50x50"),
    ])
    def test_untiled_extents_raise_naming_the_stage(self, hw, message):
        model = build(small_cfg()).eval()
        with pytest.raises(ShapeError, match=f"^{message}"):
            model(Tensor(np.zeros((1, 3) + hw, dtype=np.float32)))

    @pytest.mark.parametrize("skip_mode", ["irsc", "concat"])
    def test_mini_unet_is_not_held_to_the_patch_schedule(self, skip_mode):
        # its double-conv stages have no windows: 24 -> stages 12, 6, 3, 2
        # and 100 -> 50, 25, 13, 7 run through the padded merges
        model = build(small_cfg(variant="mini-unet", skip_mode=skip_mode, resolution=24)).eval()
        for hw in [(24, 24), (100, 100)]:
            x = Tensor(np.random.default_rng(3).standard_normal((1, 3) + hw).astype(np.float32))
            with no_grad():
                assert model(x).shape == (1, 2) + hw
            counted = forward_macs(model, *hw)
            assert sum(counted.values()) == cost_report(model, hw).total_macs, hw
        for res in (24, 100):
            with pytest.raises(ConfigError, match="^resolution .* stage 0: patch size 8"):
                build(small_cfg(resolution=res))

    def test_non_square_model_gradients(self):
        # float64, train mode, C=4 at 32x48: the stem norm's scale and every
        # fusion weight against central differences
        model = perturb_state(build(small_cfg(), dtype=np.float64), 5).train()
        x = Tensor(np.random.default_rng(6).standard_normal((2, 3, 32, 48)), dtype=np.float64)
        params = [model.stem_norm.gamma] + [
            p for n, p in model.named_parameters() if n.endswith(("alpha_local", "alpha_global"))]
        assert sum(p.size for p in params) == 20
        result = grad_check(lambda *_: model(x), params)
        assert result.max_rel_error < GENERAL_TOL, result.per_input


def test_named_state_names_and_order_are_fixed():
    # checkpoints are matched by name in this order; the digest is of the
    # 287 names of build(toy_config()) joined by newlines
    names = [name for name, _ in build(toy_config()).named_state()]
    assert len(names) == 287
    assert names[:3] == ["stem.weight", "stem_norm.gamma", "stem_norm.beta"]
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == "c85399e76ab25ca0887d4bf2c1a43c91aa3f9b396238e5e14b3fd9abdd1f4539"
    # the other variants' names, shapes and seeded init bytes, so construction
    # order cannot move for any of them
    for over, count, want in [
        (dict(variant="mini-unet", skip_mode="irsc"), 103,
         "6826bcc2fd97bc92b6a688b28a668d4ae429ec582c3ff94dc324ddaba9398e26"),
        (dict(variant="mini-unet", skip_mode="concat"), 103,
         "d1974409cb71f3d9624cfb76762c3923e31e1da6d997223980b875118b7f2ae2"),
        (dict(skip_mode="concat", interaction_mode="series"), 287,
         "6eb413d64fea14133bec73a978a9b0d2f8afe150e261c3ef2a0f4cfdbc13a7cc"),
    ]:
        state = list(build(small_cfg(**over)).named_state())
        h = hashlib.sha256()
        for name, arr in state:
            h.update(f"{name} {arr.shape}\n".encode())
            h.update(arr.tobytes())
        assert (len(state), h.hexdigest()) == (count, want), over


class TestOpCounts:
    """Graph nodes reachable from the loss of one training forward.  Each of
    linear, layer norm, softmax, cross-entropy, a batch norm followed by
    SiLU and each window partition or reverse is one node; a change that
    composes one of them from primitives again fails here by name.  A
    SegnetrBlock is one checkpoint node, so its ops are counted on the
    graph its body records, the one its backward builds again."""

    def test_segnetr_block_forward_and_loss(self):
        block = SegnetrBlock(4, 2, "parallel", rng=np.random.default_rng(11), dtype=np.float64).train()
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 8, 8)), requires_grad=True)
        labels = np.random.default_rng(3).integers(0, 4, size=(2, 8, 8))
        assert len(graph_nodes(cross_entropy(block._body(x), labels))) == 42
        assert len(graph_nodes(cross_entropy(block(x), labels))) == 2

    def test_toy_model_forward_and_loss(self):
        # stem, merge and fuse projections, IRSC layout ops, upsamples and
        # head around 8 block nodes (396 nodes when every block op was
        # recorded on this graph)
        cfg = toy_config()
        labels = np.random.default_rng(4).integers(0, 2, size=(2, cfg.resolution, cfg.resolution))
        loss = cross_entropy(build(cfg).train()(rand_input(res=cfg.resolution, seed=10)), labels)
        assert len(graph_nodes(loss)) == 76


def _toy_step_loss(model):
    """The loss of one toy training forward (batch 4), its input and labels
    made inside the call."""
    res = model.cfg.resolution
    labels = np.random.default_rng(4).integers(0, 2, size=(4, res, res))
    return cross_entropy(model(rand_input(n=4, res=res, seed=10)), labels)


class TestGraphMemory:
    def test_toy_training_forward_keeps_at_most_12_mib(self):
        # arrays the pending graph of one toy step keeps alive until its
        # backward; the gate-form window branches and a batch norm that
        # keeps no x̂ brought this from 192.0 to 126.4 MiB, the fused
        # batch-norm SiLU and conv rules that rebuild their padded rows to
        # 88.7 MiB, records that keep no op output and per-op rebuilds of
        # conv and norm inputs to 37.4 MiB, and block checkpoints, which
        # keep only each block's input, to 10.9 MiB
        loss = _toy_step_loss(build(toy_config()).train())
        assert graph_saved_bytes(loss) <= 12 * 2**20

    def test_toy_step_peak_is_at_most_39_mib(self):
        # the pending graph above leaves out what a backward builds: each
        # block's graph, recorded again by its checkpoint, lives while its
        # rule runs.  The traced peak of one forward plus backward was
        # 41.4 MiB with per-op rebuilds and is 36.8 MiB with checkpoints.
        model = build(toy_config()).train()
        backward(_toy_step_loss(model))  # first-call caches are not the step's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(_toy_step_loss(model))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 39 * 2**20

    def test_graph_bytes_agree_with_tracemalloc(self):
        # what the forward leaves allocated with only its loss held, against
        # the helper's walk of the records: a helper that missed arrays a
        # rule reaches (or counted ones nothing keeps) would
        # disagree; records and closures themselves are under 1 MiB
        model = build(toy_config()).train()
        _toy_step_loss(model)  # first-call caches are not the graph's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = _toy_step_loss(model)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert abs(held - graph_saved_bytes(loss)) <= 2 * 2**20

    def test_eval_forwards_outside_no_grad_keep_no_graph(self):
        # a dropped output frees its graph, so forwards that are never
        # backpropagated hold nothing once their outputs are gone
        cfg = toy_config()
        model = build(cfg).eval()
        x = rand_input(n=1, res=cfg.resolution, seed=10)
        model(x)  # first-call allocations are not the graph's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                model(x)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held <= 2**20


class TestNumericsBudget:
    def test_float32_eval_logits_within_1e_4_of_float64(self):
        # README "Design notes": across versions the reference is float64;
        # float32 logits stay within 1e-4 relative L2 of a float64 twin
        # holding the same weights and running statistics.  As in
        # perfbench's infer_224 check, the running statistics are the batch
        # statistics of one train-mode forward (momentum 1): under
        # perturbed but uncalibrated ones, activations reach 1e3-1e6 and
        # cancellation in the squeeze-excitation sum alone can exceed 1e-4.
        cfg = toy_config()
        model = perturb_state(build(cfg), 21)
        x = np.random.default_rng(22).standard_normal((2, 3, cfg.resolution, cfg.resolution))
        norms = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
        for m in norms:
            m.momentum = 1.0
        with no_grad():
            model.train()(Tensor(x.astype(np.float32)))
        model.eval()
        twin = build(cfg, dtype=np.float64).eval()
        for (_, mine), (_, theirs) in zip(twin.named_state(), model.named_state()):
            np.copyto(mine, theirs)
        with no_grad():
            got = model(Tensor(x.astype(np.float32))).data
            ref = twin(Tensor(x)).data
        assert got.dtype == np.float32 and ref.dtype == np.float64
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-4


class TestBatchInvariance:
    """An image's eval logits and mask do not depend on the other images of
    its batch.  One GEMM over the batch's rows in ``linear``, or a 1×1 conv
    that reads a transposed input in F order at N = 1 only, breaks this by
    1e-5 to 1e-3 at these shapes."""

    @pytest.mark.parametrize("hw", [(32, 32), (32, 48)], ids=str)
    @pytest.mark.parametrize("variant", ["segnetr", "segnetr-s", "mini-unet"])
    def test_eval_logits_of_a_batch_equal_its_singles(self, variant, hw):
        model = perturb_state(build(ModelConfig(variant=variant, resolution=32, num_classes=2, seed=3)), 8).eval()
        x = np.random.default_rng(9).standard_normal((3, 3) + hw).astype(np.float32)
        with no_grad():
            batch = model(Tensor(x)).data
            singles = [model(Tensor(x[i : i + 1])).data for i in range(3)]
        assert batch.tobytes() == np.concatenate(singles).tobytes()

    def test_predicted_masks_do_not_depend_on_batch_size(self):
        model = perturb_state(build(small_cfg()), 8)
        images = gen_synthetic(8, 32, 2, seed=5).images
        masks = [predict(model, images, batch_size=b) for b in (1, 3, 4)]
        assert masks[0].tobytes() == masks[1].tobytes() == masks[2].tobytes()


MODEL_GRADIENT_CASES = [dict(interaction_mode=m) for m in INTERACTION_MODES] + [
    dict(skip_mode="concat"), dict(variant="mini-unet", skip_mode="irsc"), dict(variant="mini-unet", skip_mode="concat")]


@pytest.mark.parametrize("over", MODEL_GRADIENT_CASES, ids=["-".join(c.values()) for c in MODEL_GRADIENT_CASES])
def test_model_gradient_along_random_directions(over):
    # every parameter at once: ⟨∇L, v⟩ against the central difference
    # (L(θ + hv) − L(θ − hv)) / 2h for 8 random unit directions v, on a
    # perturbed float64 model in train mode (C=4, 32², batch 2)
    rng = np.random.default_rng(12)
    model = perturb_state(build(small_cfg(**over), dtype=np.float64), 5).train()
    x = Tensor(rng.standard_normal((2, 3, 32, 32)), dtype=np.float64)
    labels = rng.integers(0, 2, size=(2, 32, 32))
    params = [p for _, p in model.named_parameters()]
    backward(cross_entropy(model(x), labels))
    grads = [p.grad for p in params]

    def loss_along(v, h):
        for p, d in zip(params, v):
            p.data += h * d
        try:
            with no_grad():
                return float(cross_entropy(model(x), labels).data)
        finally:
            for p, d in zip(params, v):
                p.data -= h * d

    h = 1e-4
    for _ in range(8):
        v = [rng.standard_normal(p.shape) for p in params]
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in v))
        v = [d / norm for d in v]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, v))
        numeric = (loss_along(v, h) - loss_along(v, -h)) / (2 * h)
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < GENERAL_TOL, (analytic, numeric)


@pytest.mark.parametrize("over", MODEL_GRADIENT_CASES, ids=["-".join(c.values()) for c in MODEL_GRADIENT_CASES])
def test_only_patch_size_one_local_branches_get_no_gradient(over):
    # the census of parameters whose gradient is missing or all zero, on a
    # perturbed float64 model in train mode (C=4, 32², batch 2) whose input
    # is not tracked: a one-position window's softmax is exactly 1, so the
    # attention of each P=1 local branch (the last encoder stage and the
    # first decoder stage) never moves the loss, and every other parameter
    # gets a gradient
    rng = np.random.default_rng(14)
    model = perturb_state(build(small_cfg(**over), dtype=np.float64), 5).train()
    x = Tensor(rng.standard_normal((2, 3, 32, 32)), dtype=np.float64)
    backward(cross_entropy(model(x), rng.integers(0, 2, size=(2, 32, 32))))
    dead = [name for name, p in model.named_parameters() if p.grad is None or not p.grad.any()]
    local = model.cfg.variant == "segnetr" and model.cfg.interaction_mode in ("local", "series", "parallel")
    assert dead == [f"{stage}.local_branch.attention.{p}"
                    for stage in ("encoder_stages.3.0", "decoder_stages.0.0") if local
                    for p in ("norm.gamma", "norm.beta", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias")]


class TestMiniUnet:
    def test_skip_modes_produce_identical_shapes(self):
        irsc = MiniUnet(small_cfg(variant="mini-unet", skip_mode="irsc"))
        cat = MiniUnet(small_cfg(variant="mini-unet", skip_mode="concat"))
        x = rand_input(seed=8)
        assert irsc(x).shape == cat(x).shape == (2, 2, 32, 32)

    def test_irsc_has_no_more_params_than_concat(self):
        irsc = MiniUnet(small_cfg(variant="mini-unet", skip_mode="irsc"))
        cat = MiniUnet(small_cfg(variant="mini-unet", skip_mode="concat"))
        assert count_params(irsc) < count_params(cat)

    def test_build_dispatch(self):
        assert isinstance(build(small_cfg(variant="mini-unet")), MiniUnet)
        assert isinstance(build(small_cfg()), SegnetrModel)
        assert isinstance(build(small_cfg(variant="segnetr-s")), SegnetrModel)


class TestVariantGeometry:
    def test_param_ratio_between_variants(self):
        big = count_params(build(ModelConfig(resolution=32)))
        small = count_params(build(ModelConfig(variant="segnetr-s", resolution=32)))
        assert 3.0 < big / small < 4.0
