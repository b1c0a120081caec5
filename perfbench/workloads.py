"""The three benchmark workloads and the correctness checks of their operations.

Each workload builds its inputs from the workload seed, sets itself up
(``setup``, repeated by the harness), and then runs operations (``run_op``)
that return whether every check on that operation's outputs held.

* ``train``: one operation is the desk-default training pipeline in the
  command line's order: synthetic pairs, a dataset save/load round trip,
  the base denoiser, the rank-limited trunk, then the content and the style
  adapter, with checkpoint saves and loads.
* ``sample``: one operation is one batch-1 ``GuidedSampler.sample`` call on a
  fixed host and both adapters, one client in a closed loop. Prompts come
  from the 10x10 banks in a fixed mix of marker patterns.
* ``grid``: one operation is one ``cli.evaluate_grid`` call on the full
  10x10 prompt grid at ``threads=1``.

``sample`` and ``grid`` share one host and adapter pair, trained by the same
pipeline at a fixed seed and loaded through ``checkpoint`` as the command
line does. It is built once per source tree and kept under the build
directory (see ``ensure_host``).
"""

import contextlib
import dataclasses
import hashlib
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from craftlora import adapters, checkpoint, cli, guidance, metrics, pairs, pgm, prompts, subspace
from craftlora.config import RunConfig
from craftlora.denoiser import DenoiserTrainer, NoiseSchedule
from craftlora.utils import derive_seed, make_rng

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_SEED = 0
HOST_FILES = ("trunk.crft", "content.crft", "style.crft")
# Marker patterns of the sample workload, in equal shares.
PATTERNS = ("both", "content", "style", "none")
SAMPLE_PLAN = 4096


def make_config(seed, tiny=False):
    """Desk defaults; ``tiny`` shrinks every stage for the smoke test only."""
    config = RunConfig()
    config.seed = seed
    if tiny:
        config.denoiser.train_steps = 4
        config.denoiser.warmup = 1
        config.trunk.steps = 3
        config.trunk.warmup = 1
        config.adapter.steps = 3
        config.adapter.warmup = 1
        config.dataset.n_content = 2
        config.dataset.n_style = 2
    return config.validate()


def _schedule(config):
    s = config.schedule
    return NoiseSchedule.linear(s.total_steps, s.beta_start, s.beta_end)


@contextlib.contextmanager
def work_dir(build_dir):
    """A fresh temporary directory under the build directory, removed on exit."""
    path = os.path.join(build_dir, f"work{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# -- the training pipeline ---------------------------------------------------


def _train_base(config, dataset):
    """The base denoiser fit as ``craftlora train-trunk`` runs it.

    Program functions are looked up on their modules, so the traced run
    counts these calls like the program's own.
    """
    images, embeddings = [], []
    for pair in dataset:
        images.append(pair.content_image)
        embeddings.append(prompts.encode_semantic(f"{pair.content_prompt} {pair.style_modifier}"))
        images.append(pair.style_image)
        embeddings.append(prompts.encode_semantic(f"{pair.content_modifier} {pair.style_prompt}"))
    settings = dataclasses.asdict(config.denoiser)
    settings["steps"] = settings.pop("train_steps")
    trainer = DenoiserTrainer(
        **settings,
        schedule=_schedule(config),
        seed=derive_seed(config.seed, "base-denoiser"),
    )
    trainer.fit(np.stack(images), np.stack(embeddings))
    return trainer


def _pgm_equal(a, b):
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= 1.0 / pgm.MAXVAL


def _f32(arr):
    return np.asarray(arr, dtype=np.float32).astype(np.float64)


def _adapter_round_trips(adapter, loaded):
    if (loaded.kind, loaded.rank, loaded.host_hash, loaded.routing) != (
        adapter.kind, adapter.rank, adapter.host_hash, adapter.routing
    ):
        return False
    if set(loaded.factors) != set(adapter.factors):
        return False
    for name, (b, a) in adapter.factors.items():
        lb, la = loaded.factors[name]
        if not (np.array_equal(lb, _f32(b)) and np.array_equal(la, _f32(a))):
            return False
    return (
        np.array_equal(loaded.gate_w, _f32(adapter.gate_w))
        and loaded.gate_b == float(_f32(adapter.gate_b))
    )


def run_pipeline(config, out_dir, content_index, style_index):
    """Train host and adapters into ``out_dir``; returns (ok, stage record).

    The order and the checkpoint traffic follow ``gen-pairs``,
    ``train-trunk``, and ``train-lora`` for each kind.
    """
    ok = True
    record = {}
    clock = time.perf_counter
    ds = config.dataset
    dataset_dir = os.path.join(out_dir, "pairs")
    trunk_path = os.path.join(out_dir, "trunk.crft")

    t0 = clock()
    dataset = pairs.generate_pair_dataset(
        n_content=ds.n_content,
        n_style=ds.n_style,
        mode=ds.mode,
        seed=derive_seed(config.seed, "pairs"),
        sigma=ds.sigma,
        size=config.denoiser.image_size,
        schedule=_schedule(config),
    )
    pairs.save_dataset(dataset_dir, dataset)
    loaded = pairs.load_dataset(dataset_dir)
    ok &= len(loaded) == len(dataset) and all(
        a.pair_id == b.pair_id
        and (a.content_prompt, a.style_prompt) == (b.content_prompt, b.style_prompt)
        and _pgm_equal(a.content_image, b.content_image)
        and _pgm_equal(a.style_image, b.style_image)
        for a, b in zip(dataset, loaded)
    )
    t1 = clock()
    base = _train_base(config, loaded)
    ok &= all(math.isfinite(v) for v in base.loss_history_)
    t2 = clock()
    tuner = subspace.TrunkFinetuner(
        **dataclasses.asdict(config.trunk),
        schedule=_schedule(config),
        seed=derive_seed(config.seed, "trunk"),
    )
    tuner.fit(base.backbone_, loaded)
    t3 = clock()
    checkpoint.save_backbone(trunk_path, tuner.backbone_)
    checkpoint.save_tensor_set(
        trunk_path + ".bases",
        [
            (f"{name}.{kind}", tuner.bases_.side(kind)[name])
            for name in tuner.backbone_.names
            for kind in ("content", "style")
        ],
    )
    history = tuner.loss_history_
    ok &= bool(history) and all(math.isfinite(v) for v in history)
    for idx, name in enumerate(tuner.backbone_.names, start=1):
        planned = tuner.rank_schedule_.rank_at(idx)
        ok &= tuner.merged_ranks_[name] <= 2 * planned
    record["trunk_loss"] = history[-1] if history else float("nan")
    record["trunk_parts"] = (base.backbone_, tuner.bases_, loaded)

    adapter_fit_s = 0.0
    pair_id = content_index * ds.n_style + style_index
    for kind, prompt in (
        ("content", f"{pairs.CONTENT_PROMPTS[content_index]} <c>"),
        ("style", f"{pairs.STYLE_PROMPTS[style_index]} <s>"),
    ):
        host = checkpoint.load_backbone(trunk_path)
        ok &= all(
            np.array_equal(w, _f32(tuner.backbone_.weight(name))) for name, w in host.items()
        )
        reference = pgm.read_pgm(
            os.path.join(dataset_dir, pairs.IMAGE_DIR, f"pair_{pair_id:03d}_{kind}.pgm")
        )
        trainer = adapters.LoraTrainer(
            kind,
            **dataclasses.asdict(config.adapter),
            routing=adapters.default_routing(host.names),
            schedule=_schedule(config),
            host_hash=checkpoint.file_sha256(trunk_path),
            seed=derive_seed(config.seed, "lora", kind),
        )
        start = clock()
        trainer.fit(host, reference, prompt)
        adapter_fit_s += clock() - start
        ok &= all(math.isfinite(v) for v in trainer.loss_history_)
        adapter_path = os.path.join(out_dir, f"{kind}.crft")
        checkpoint.save_adapter(adapter_path, trainer.adapter_)
        ok &= _adapter_round_trips(trainer.adapter_, checkpoint.load_adapter(adapter_path))

    record.update(
        pairs_io_s=t1 - t0,
        base_fit_s=t2 - t1,
        trunk_fit_s=t3 - t2,
        adapter_fit_s=adapter_fit_s,
    )
    return bool(ok), record


# -- the shared host of the sample and grid workloads ------------------------


def source_digest(root, tiny):
    """Hash of the program's sources and of this file, which trains the host."""
    h = hashlib.sha256(b"tiny" if tiny else b"desk")
    src = os.path.join(root, "src")
    files = []
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        files.extend(os.path.join(dirpath, f) for f in filenames if f.endswith(".py"))
    for path in sorted(files) + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build_host(out_dir, tiny):
    """Train the fixed host and both adapters into ``out_dir``."""
    ok, _ = run_pipeline(make_config(HOST_SEED, tiny), out_dir, 0, 0)
    if not ok:
        raise RuntimeError("the host pipeline failed its checks")


def _complete(host_dir):
    return all(os.path.exists(os.path.join(host_dir, f)) for f in HOST_FILES)


def ensure_host(root, build_dir, tiny):
    """Directory of the cached host, trained in a child process when missing.

    The child keeps training's memory out of this process's peak RSS. A
    changed source tree gets a new directory, so the host always comes from
    the code under test.
    """
    host_dir = os.path.join(build_dir, "host-" + source_digest(root, tiny)[:16])
    if _complete(host_dir):
        return host_dir
    tmp = f"{host_dir}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--build-host", tmp]
    if tiny:
        cmd.append("--tiny")
    try:
        subprocess.run(cmd, check=True, timeout=900, stdout=subprocess.DEVNULL)
        try:
            os.rename(tmp, host_dir)
        except OSError:
            if not _complete(host_dir):  # else a concurrent run installed it first
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return host_dir


def load_host(host_dir):
    """Host and adapters as ``craftlora sample``/``eval`` load them."""
    host_path = os.path.join(host_dir, "trunk.crft")
    host = checkpoint.load_backbone(host_path)
    digest = checkpoint.file_sha256(host_path)
    loaded = []
    for kind in ("content", "style"):
        adapter = checkpoint.load_adapter(os.path.join(host_dir, f"{kind}.crft"))
        if adapter.host_hash != digest:
            raise RuntimeError(f"the cached {kind} adapter belongs to another host")
        loaded.append(adapter)
    return host, loaded[0], loaded[1]


def _sampler(config, host, content_adapter, style_adapter):
    g = config.guidance
    return guidance.GuidedSampler(
        host,
        content_adapter=content_adapter,
        style_adapter=style_adapter,
        omega=g.omega,
        content_window=g.content_window,
        style_window=g.style_window,
        alpha_min=g.alpha_min,
        alpha_max=g.alpha_max,
        ramp=g.ramp,
        schedule=_schedule(config),
    )


def sample_prompt(pattern, i, j):
    content = pairs.CONTENT_PROMPTS[i] + (" <c>" if pattern in ("both", "content") else "")
    style = pairs.STYLE_PROMPTS[j] + (" <s>" if pattern in ("both", "style") else "")
    return f"{content} {style}"


# -- workloads ---------------------------------------------------------------


class TrainWorkload:
    name = "train"
    round_ops = 1
    traced_ops = 1

    def __init__(self, root, build_dir, seed, tiny):
        self.build_dir = build_dir
        self.seed = seed
        self.tiny = tiny
        self.records = []

    def prepare(self):
        pass

    def setup(self):
        """Inputs from the seed, then one warm-up pass of a shrunken pipeline."""
        rng = random.Random(self.seed)
        self.config = make_config(self.seed, self.tiny)
        ds = self.config.dataset
        self.reference = (rng.randrange(ds.n_content), rng.randrange(ds.n_style))
        warm = make_config(self.seed, tiny=True)
        with work_dir(self.build_dir) as work:
            run_pipeline(warm, work, 0, 0)

    def run_op(self, index):
        with work_dir(self.build_dir) as work:
            ok, record = run_pipeline(self.config, work, *self.reference)
        self.records.append(record)
        return ok

    def final_checks(self):
        return []

    def quality(self):
        """The trunk objective of the trained bases, median over operations.

        It is evaluated on every pair under draws from a fixed seed, so it
        depends on the trained model alone. A training step's loss depends
        on its random timesteps far more than on the model.
        """
        schedule = _schedule(self.config)
        trunk = self.config.trunk
        values = []
        for record in self.records:
            base, bases, dataset = record["trunk_parts"]
            draws = subspace.make_trunk_draws(dataset, schedule, make_rng(0, "perfbench-eval"))
            perceptual = subspace.PerceptualProxy(image_size=self.config.denoiser.image_size)
            loss, _ = subspace.trunk_loss(
                base, bases, dataset, trunk.lambda_reg, trunk.alpha_perc, schedule, draws,
                perceptual=perceptual,
            )
            values.append(loss)
        return statistics.median(values)

    def info(self):
        keys = ("pairs_io_s", "base_fit_s", "trunk_fit_s", "adapter_fit_s", "trunk_loss")
        return {k: statistics.median(r[k] for r in self.records) for k in keys}


class SampleWorkload:
    name = "sample"
    round_ops = len(PATTERNS)
    traced_ops = 100

    def __init__(self, root, build_dir, seed, tiny):
        self.root = root
        self.build_dir = build_dir
        self.seed = seed
        self.tiny = tiny
        self.outputs = {}

    def prepare(self):
        self.host_dir = ensure_host(self.root, self.build_dir, self.tiny)

    def setup(self):
        """Prompt plan from the seed, host load and hash check, one warm-up sample.

        Every round of four operations holds each marker pattern once, in a
        seed-shuffled order, so the mix is exact in any whole number of
        rounds. Every ten rounds give each pattern each content prompt once;
        style prompts and noise seeds are drawn freely.
        """
        rng = random.Random(self.seed)
        self.config = make_config(self.seed, self.tiny)
        n_content = len(pairs.CONTENT_PROMPTS)
        plan = []
        while len(plan) < SAMPLE_PLAN:
            contents = {p: rng.sample(range(n_content), n_content) for p in PATTERNS}
            for r in range(n_content):
                for pattern in rng.sample(PATTERNS, len(PATTERNS)):
                    i, j = contents[pattern][r], rng.randrange(len(pairs.STYLE_PROMPTS))
                    plan.append((pattern, i, sample_prompt(pattern, i, j), rng.getrandbits(63)))
        self.plan = plan
        host, content_adapter, style_adapter = load_host(self.host_dir)
        self.sampler = _sampler(self.config, host, content_adapter, style_adapter)
        self.sampler.sample(plan[0][2], seed=plan[0][3])

    def run_op(self, index):
        _, _, prompt, seed = self.plan[index % len(self.plan)]
        image = self.sampler.sample(prompt, seed=seed)
        self.outputs.setdefault(index % len(self.plan), image)
        steps = self.sampler.schedule.total_steps
        return bool(
            np.all(np.isfinite(image))
            and image.min() >= 0.0
            and image.max() <= 1.0
            and self.sampler.n_network_evals_ == 2 * steps
        )

    def final_checks(self):
        """A same-seed rerun of the first operation is byte-identical."""
        _, _, prompt, seed = self.plan[0]
        again = self.sampler.sample(prompt, seed=seed)
        return [again.tobytes() == self.outputs[0].tobytes()]

    def quality(self):
        """1 - content similarity of content-marked samples to their reference.

        The feature extractor is the measuring instrument, so its seed is
        fixed rather than drawn from the workload seed.
        """
        extractor = metrics.ImageFeatureExtractor(seed=0)
        size = self.config.denoiser.image_size
        sims = []
        for k, image in sorted(self.outputs.items()):
            pattern, i = self.plan[k][:2]
            if pattern in ("both", "content"):
                reference = pairs.content_render(i, size)
                sims.append(metrics.content_preservation(extractor, [image], reference))
        return 1.0 - statistics.fmean(sims)

    def info(self):
        return {}


class GridWorkload:
    name = "grid"
    round_ops = 1
    traced_ops = 1

    def __init__(self, root, build_dir, seed, tiny):
        self.root = root
        self.build_dir = build_dir
        self.seed = seed
        self.tiny = tiny
        self.reports = []

    def prepare(self):
        self.host_dir = ensure_host(self.root, self.build_dir, self.tiny)

    def setup(self):
        """Host load and hash check, one warm-up sample."""
        self.host, self.content_adapter, self.style_adapter = load_host(self.host_dir)
        config = make_config(self.seed, self.tiny)
        sampler = _sampler(config, self.host, self.content_adapter, self.style_adapter)
        sampler.sample(sample_prompt("both", 0, 0), seed=derive_seed(self.seed, "warm-up"))

    def _evaluate(self, index):
        """The grid of operation ``index``; its config seed comes from the workload seed.

        ``evaluate_grid`` draws its noise seeds and its feature extractor from
        the config seed, so each operation scores a different grid and the
        run's quality averages over them.
        """
        config = make_config(derive_seed(self.seed, "grid", index), self.tiny)
        ds = config.dataset
        return cli.evaluate_grid(
            self.host,
            self.content_adapter,
            self.style_adapter,
            config,
            ds.n_content,
            ds.n_style,
            threads=1,
        )

    def run_op(self, index):
        report = self._evaluate(index)
        self.reports.append(report)
        scores = (report.s_c, report.s_s, report.s_x)
        return all(math.isfinite(s) for s in scores) and 0.0 <= report.s_x <= 1.0

    def final_checks(self):
        """A same-seed rerun of the first grid reproduces its report byte for byte."""
        return [self._evaluate(0).to_json() == self.reports[0].to_json()]

    def quality(self):
        """1 - s_c, the content error of the grids, averaged over operations.

        Cross-influence is not used: ``evaluate_grid`` draws a fresh noise seed
        per cell, so at desk defaults s_x saturates at its clip value 1.0.
        """
        return 1.0 - statistics.fmean(r.s_c for r in self.reports)

    def info(self):
        return {
            key: statistics.fmean(getattr(r, key) for r in self.reports)
            for key in ("s_c", "s_s", "s_x")
        }


WORKLOADS = {w.name: w for w in (TrainWorkload, SampleWorkload, GridWorkload)}
