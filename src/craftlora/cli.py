"""Command-line surface and end-to-end pipeline orchestration.

Exit codes: 0 success, 1 usage or config error, 2 data or corruption error,
3 numerical failure. Every command with a seed is bytewise reproducible.
"""

import dataclasses
import json
import math
import sys

import click
import numpy as np

from . import checkpoint as ckpt
from .adapters import KINDS, LoraTrainer
from .config import ENV_CONFIG, config_hash, load_config
from .denoiser import DenoiserTrainer, NoiseSchedule
from .exceptions import (
    ConfigInvalid,
    CorruptCheckpoint,
    CraftLoraError,
    HostMismatch,
    MarkerMissing,
    NumericalError,
)
from .guidance import GuidedSampler
from .metrics import (
    EvalReport,
    ImageFeatureExtractor,
    content_preservation,
    cross_influence,
    style_fidelity,
    write_report,
)
from .pairs import (
    CONTENT_PROMPTS,
    STYLE_PROMPTS,
    content_render,
    generate_pair_dataset,
    load_dataset,
    save_dataset,
    style_render,
)
from .pgm import pgm_bytes, read_pgm
from .subspace import TrunkFinetuner, member_embedding
from .utils import derive_seed, run_row_blocks

USAGE_EXIT = 1
DATA_EXIT = 2
NUMERIC_EXIT = 3

# `sample` and `eval` take this many reverse steps, evenly spaced over the
# schedule (every step of a shorter one)
SAMPLING_STEPS = 25


def _schedule_from(config):
    return NoiseSchedule.linear(**dataclasses.asdict(config.schedule))


def _load_run_config(path, seed):
    config = load_config(path)
    if seed is not None:
        config.seed = seed
    return config


def _train_base_denoiser(config, dataset):
    images = []
    embeddings = []
    for pair in dataset:
        images.append(pair.content_image)
        embeddings.append(member_embedding(pair, "content"))
        images.append(pair.style_image)
        embeddings.append(member_embedding(pair, "style"))
    trainer = DenoiserTrainer(
        **dataclasses.asdict(config.denoiser),
        schedule=_schedule_from(config),
        seed=derive_seed(config.seed, "base-denoiser"),
    )
    trainer.fit(np.stack(images), np.stack(embeddings))
    return trainer.backbone_


def _sampler(config, backbone, content_adapter, style_adapter, **overrides):
    """A guided sampler with the config's guidance settings, on its schedule
    respaced to ``SAMPLING_STEPS``."""
    schedule = _schedule_from(config)
    if schedule.total_steps > SAMPLING_STEPS:
        schedule = schedule.respaced(SAMPLING_STEPS)
    return GuidedSampler(
        backbone,
        content_adapter=content_adapter,
        style_adapter=style_adapter,
        **dataclasses.asdict(config.guidance),
        schedule=schedule,
        **overrides,
    )


@click.group()
def cli():
    """Desk-scale content/style adapter pipeline."""


_config_option = click.option(
    "--config",
    "config_path",
    type=click.Path(dir_okay=False),
    default=None,
    help=f"JSON config file (falls back to ${ENV_CONFIG}, then defaults).",
)
_seed_option = click.option("--seed", type=int, default=None, help="Override the config seed.")


@cli.command("gen-pairs")
@_config_option
@_seed_option
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--mode", type=click.Choice(["synthetic", "diffusion"]), default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--n-content", type=int, default=None)
@click.option("--n-style", type=int, default=None)
@click.option("--backbone", "backbone_path", type=click.Path(dir_okay=False), default=None,
              help="Trained backbone checkpoint (diffusion mode).")
def cmd_gen_pairs(config_path, seed, out_dir, mode, sigma, n_content, n_style, backbone_path):
    """Write the contrastive pair dataset (images plus manifest)."""
    config = _load_run_config(config_path, seed)
    ds = config.dataset
    backbone = ckpt.load_backbone(backbone_path) if backbone_path else None
    dataset = generate_pair_dataset(
        n_content=ds.n_content if n_content is None else n_content,
        n_style=ds.n_style if n_style is None else n_style,
        mode=ds.mode if mode is None else mode,
        seed=derive_seed(config.seed, "pairs"),
        sigma=ds.sigma if sigma is None else sigma,
        size=config.denoiser.image_size,
        backbone=backbone,
        schedule=_schedule_from(config),
    )
    save_dataset(out_dir, dataset)
    click.echo(f"wrote {len(dataset)} pairs to {out_dir}")


@cli.command("train-trunk")
@_config_option
@_seed_option
@click.option("--dataset", "dataset_dir", required=True, type=click.Path(file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--base", "base_path", type=click.Path(dir_okay=False), default=None,
              help="Base denoiser checkpoint; trained on the fly when omitted.")
@click.option("--save-base", "save_base_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the unprojected base weights, a plain host for adapters.")
def cmd_train_trunk(config_path, seed, dataset_dir, out_path, base_path, save_base_path):
    """Rank-limited fine-tune of the backbone; emits host plus bases sidecar."""
    config = _load_run_config(config_path, seed)
    dataset = load_dataset(dataset_dir)
    if base_path:
        base = ckpt.load_backbone(base_path)
    else:
        base = _train_base_denoiser(config, dataset)
    tuner = TrunkFinetuner(
        **dataclasses.asdict(config.trunk),
        schedule=_schedule_from(config),
        seed=derive_seed(config.seed, "trunk"),
    )
    tuner.fit(base, dataset)
    if save_base_path:
        ckpt.save_backbone(save_base_path, base)
    ckpt.save_backbone(out_path, tuner.backbone_)
    sidecar = [
        (f"{name}.{kind}", basis)
        for name in tuner.backbone_.names
        for kind, basis in zip(KINDS, tuner.bases_.stacks[name])
    ]
    ckpt.save_tensor_set(out_path + ".bases", sidecar)
    final_loss = tuner.loss_history_[-1] if tuner.loss_history_ else float("nan")
    click.echo(f"final trunk loss: {final_loss:.6f}")
    click.echo("layer ranks (merged subspace):")
    for idx, name in enumerate(tuner.backbone_.names, start=1):
        planned = tuner.rank_schedule_.rank_at(idx)
        click.echo(f"  {name}: planned {planned}, merged {tuner.merged_ranks_[name]}")


@cli.command("train-lora")
@_config_option
@_seed_option
@click.option("--kind", type=click.Choice(["content", "style"]), required=True)
@click.option("--reference", "reference_path", required=True, type=click.Path(dir_okay=False))
@click.option("--prompt", required=True)
@click.option("--backbone", "backbone_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_train_lora(config_path, seed, kind, reference_path, prompt, backbone_path, out_path):
    """Train one adapter kind on a single reference image."""
    config = _load_run_config(config_path, seed)
    backbone = ckpt.load_backbone(backbone_path)
    reference = read_pgm(reference_path)
    trainer = LoraTrainer(
        kind,
        **dataclasses.asdict(config.adapter),
        schedule=_schedule_from(config),
        host_hash=ckpt.file_sha256(backbone_path),
        seed=derive_seed(config.seed, "lora", kind),
    )
    trainer.fit(backbone, reference, prompt)
    ckpt.save_adapter(out_path, trainer.adapter_)
    click.echo(f"final {kind} adapter loss: {trainer.loss_history_[-1]:.6f}"
               if trainer.loss_history_ else "adapter saved at initialization")


def _load_adapter_for(backbone_path, adapter_path):
    adapter = ckpt.load_adapter(adapter_path)
    if adapter.host_hash and adapter.host_hash != ckpt.file_sha256(backbone_path):
        raise HostMismatch(
            f"{adapter_path} was trained on a different backbone than {backbone_path}"
        )
    return adapter


@cli.command("sample")
@_config_option
@_seed_option
@click.option("--prompt", required=True)
@click.option("--backbone", "backbone_path", required=True, type=click.Path(dir_okay=False))
@click.option("--content-adapter", "content_path", type=click.Path(dir_okay=False), default=None)
@click.option("--style-adapter", "style_path", type=click.Path(dir_okay=False), default=None)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--gamma-c", "gamma_c", type=float, default=None,
              help="Continuous override of the content gain.")
@click.option("--gamma-s", "gamma_s", type=float, default=None,
              help="Continuous override of the style gain.")
@click.option("--symmetric-cfg", is_flag=True,
              help="Ablation: the unconditional pass reuses the conditional weights.")
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help="Write per-step diagnostic records to this file.")
def cmd_sample(config_path, seed, prompt, backbone_path, content_path, style_path,
               out_path, gamma_c, gamma_s, symmetric_cfg, trace_path):
    """Guided sampling; writes a PGM image and optionally a trace."""
    config = _load_run_config(config_path, seed)
    backbone = ckpt.load_backbone(backbone_path)
    content_adapter = _load_adapter_for(backbone_path, content_path) if content_path else None
    style_adapter = _load_adapter_for(backbone_path, style_path) if style_path else None
    sampler = _sampler(
        config,
        backbone,
        content_adapter,
        style_adapter,
        gamma_content=gamma_c,
        gamma_style=gamma_s,
        symmetric_cfg=symmetric_cfg,
        record_trace=trace_path is not None,
    )
    image = sampler.sample(prompt, seed=derive_seed(config.seed, "sample"))
    ckpt.write_atomic(out_path, pgm_bytes(image))
    if trace_path is not None:
        ckpt.write_atomic(trace_path, ("\n".join(sampler.trace_) + "\n").encode("utf-8"))
    click.echo(f"wrote {out_path} ({sampler.n_network_evals_} network evals)")


@cli.command("eval")
@_config_option
@_seed_option
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker threads; never changes numerical results.")
@click.option("--backbone", "backbone_path", required=True, type=click.Path(dir_okay=False))
@click.option("--content-adapter", "content_path", required=True, type=click.Path(dir_okay=False))
@click.option("--style-adapter", "style_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--n-content", type=int, default=None, help="Content prompts in the grid.")
@click.option("--n-style", type=int, default=None, help="Style prompts in the grid.")
def cmd_eval(config_path, seed, threads, backbone_path, content_path, style_path,
             out_path, n_content, n_style):
    """Generate the prompt grid and report the disentanglement scores."""
    config = _load_run_config(config_path, seed)
    n_c = config.dataset.n_content if n_content is None else n_content
    n_s = config.dataset.n_style if n_style is None else n_style
    if not (1 <= n_c <= len(CONTENT_PROMPTS)) or not (2 <= n_s <= len(STYLE_PROMPTS)):
        raise ConfigInvalid("grid sizes out of range (need n_style >= 2 for cross influence)")
    backbone = ckpt.load_backbone(backbone_path)
    content_adapter = _load_adapter_for(backbone_path, content_path)
    style_adapter = _load_adapter_for(backbone_path, style_path)
    report = evaluate_grid(
        backbone,
        content_adapter,
        style_adapter,
        config,
        n_c,
        n_s,
        threads=threads,
    )
    write_report(out_path, report)
    click.echo(
        f"s_c={report.s_c:.4f} s_s={report.s_s:.4f} s_x={report.s_x:.4f} -> {out_path}"
    )


def evaluate_grid(backbone, content_adapter, style_adapter, config, n_content, n_style, threads=1):
    """Full prompt-grid generation plus the three disentanglement scores.

    The grid cells are sampled as the rows of ``sample_batch`` calls, one
    call per contiguous block of whole content rows from ``run_row_blocks``,
    so the thread count never changes the report. The cells of one content
    row share one noise seed, so the cross-influence score compares styles
    under the same noise; each content row's stream is drawn once.
    """
    size = config.denoiser.image_size
    cells = [(i, j) for i in range(n_content) for j in range(n_style)]
    prompts = [f"{CONTENT_PROMPTS[i]} <c> {STYLE_PROMPTS[j]} <s>" for i, j in cells]
    seeds = [derive_seed(config.seed, "eval", i) for i, _ in cells]

    def generate(first_row, stop_row):
        start, stop = first_row * n_style, stop_row * n_style
        sampler = _sampler(config, backbone, content_adapter, style_adapter)
        return sampler.sample_batch(prompts[start:stop], seeds[start:stop])

    flat = run_row_blocks(generate, n_content, threads)
    grid = [list(flat[i * n_style:(i + 1) * n_style]) for i in range(n_content)]

    extractor = ImageFeatureExtractor(seed=derive_seed(config.seed, "eval-features"))
    sigma = config.dataset.sigma
    s_c_rows = [
        content_preservation(extractor, grid[i], content_render(i, size)) for i in range(n_content)
    ]
    s_s_cols = [
        style_fidelity(extractor, [row[j] for row in grid], style_render(j, size), sigma)
        for j in range(n_style)
    ]
    return EvalReport(
        s_c=math.fsum(s_c_rows) / n_content,
        s_s=math.fsum(s_s_cols) / n_style,
        s_x=cross_influence(extractor, grid, sigma=sigma),
        content_rows=list(zip(CONTENT_PROMPTS, s_c_rows)),
        style_columns=list(zip(STYLE_PROMPTS, s_s_cols)),
        seed=config.seed,
        config_hash=config_hash(config),
    )


@cli.command("inspect")
@click.argument("path", type=click.Path(dir_okay=False))
def cmd_inspect(path):
    """Human-readable checkpoint summary; validates the CRC."""
    summary = ckpt.inspect_checkpoint(path)
    click.echo(f"kind: {summary['kind']} (format v{summary['version']}, crc ok)")
    if summary["kind"] == "adapter":
        click.echo(f"adapter kind: {summary['adapter_kind']}, rank {summary['rank']}")
        click.echo(f"host hash: {summary['host_hash'] or '(unbound)'}")
        routing = summary["routing"]
        click.echo(f"routing content: {', '.join(routing['content'])}")
        click.echo(f"routing style:   {', '.join(routing['style'])}")
        click.echo("routing sets are disjoint")
    click.echo(f"tensors: {len(summary['tensors'])}")
    for name, shape in summary["tensors"]:
        click.echo(f"  {name}: {shape[0]}x{shape[1]}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        sys.exit(USAGE_EXIT)
    except click.ClickException as exc:
        exc.show()
        sys.exit(USAGE_EXIT)
    except click.exceptions.Abort:
        sys.exit(USAGE_EXIT)
    except (ConfigInvalid, MarkerMissing) as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(USAGE_EXIT)
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(NUMERIC_EXIT)
    except (CorruptCheckpoint, HostMismatch, OSError, json.JSONDecodeError) as exc:
        click.echo(f"data error: {exc}", err=True)
        sys.exit(DATA_EXIT)
    except CraftLoraError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(USAGE_EXIT)
    return 0


if __name__ == "__main__":
    main()
