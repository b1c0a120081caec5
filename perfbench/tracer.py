"""Span recorder for the traced benchmark run.

The recorder wraps the public callables of each craftlora module from the
outside: nothing under ``src/`` changes. Modules import each other's names
with ``from .x import y``, so a callable is replaced at every module-level
binding that holds it, not only in the module that defines it. Methods are
replaced on their class.

Each wrapped call records one span ``(name, start, end, parent)`` in memory;
``write`` dumps them when the run ends. Hot trivial calls are counted, not
spanned. Some wrappers also record exact-repeat counts (rows per forward
pass, distinct perceptual-feature inputs, effective guidance gains) from
which the waste ratios are derived; these tallies run after a span closes,
so their small cost lands in the parent's self time. Single-threaded use
only: the parent of a span is the innermost open span.
"""

import functools
import hashlib
import importlib
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute path) of every spanned callable; the metric prefix is the
# module's short name followed by the attribute path. save_tensor_set,
# evaluate_grid and the trainers' fit are spanned for bytes written, span
# structure and stage times, not reported on their own.
SPANNED = (
    ("craftlora.subspace", "trunk_loss"),
    ("craftlora.subspace", "PerceptualProxy.features"),
    ("craftlora.subspace", "PerceptualProxy.input_grad"),
    ("craftlora.subspace", "merge_subspaces"),
    ("craftlora.linalg", "householder_qr"),
    ("craftlora.linalg", "qr_backward"),
    ("craftlora.denoiser", "forward_pass"),
    ("craftlora.denoiser", "backward_pass"),
    ("craftlora.denoiser", "ddpm_step"),
    ("craftlora.optim", "Adam.step"),
    ("craftlora.adapters", "adapter_loss"),
    ("craftlora.adapters", "aggregate_weights"),
    ("craftlora.guidance", "guided_eps_parts"),
    ("craftlora.guidance", "GuidedSampler.sample"),
    ("craftlora.metrics", "ImageFeatureExtractor.transform"),
    ("craftlora.metrics", "random_pair_distance"),
    ("craftlora.metrics", "cross_influence"),
    ("craftlora.frequency", "gaussian_lowpass"),
    ("craftlora.pairs", "generate_pair_dataset"),
    ("craftlora.checkpoint", "save_backbone"),
    ("craftlora.checkpoint", "save_tensor_set"),
    ("craftlora.checkpoint", "save_adapter"),
    ("craftlora.checkpoint", "load_backbone"),
    ("craftlora.checkpoint", "load_adapter"),
    ("craftlora.checkpoint", "file_sha256"),
    ("craftlora.cli", "evaluate_grid"),
    ("craftlora.denoiser", "DenoiserTrainer.fit"),
    ("craftlora.subspace", "TrunkFinetuner.fit"),
    ("craftlora.adapters", "LoraTrainer.fit"),
)

# Called thousands of times for microseconds each: counted only.
COUNTED = (
    ("craftlora.validation", "as_matrix"),
    ("craftlora.prompts", "encode_semantic"),
    ("craftlora.denoiser", "Backbone.__init__"),
)

# The per-layer metrics of a traced phase, in report order, with units.
PER_LAYER = (
    ("subspace.trunk_loss.self_s", "s"),
    ("subspace.PerceptualProxy.features.calls", "count"),
    ("subspace.PerceptualProxy.features.self_s", "s"),
    ("subspace.PerceptualProxy.features.unique_input_ratio", "ratio"),
    ("subspace.PerceptualProxy.input_grad.self_s", "s"),
    ("subspace.merge_subspaces.self_s", "s"),
    ("linalg.householder_qr.calls", "count"),
    ("linalg.householder_qr.self_s", "s"),
    ("linalg.qr_backward.calls", "count"),
    ("linalg.qr_backward.self_s", "s"),
    ("denoiser.forward_pass.calls", "count"),
    ("denoiser.forward_pass.self_s", "s"),
    ("denoiser.forward_pass.rows_per_call", "rows/call"),
    ("denoiser.backward_pass.calls", "count"),
    ("denoiser.backward_pass.self_s", "s"),
    ("denoiser.Backbone.calls", "count"),
    ("denoiser.ddpm_step.self_s", "s"),
    ("optim.Adam.step.self_s", "s"),
    ("adapters.adapter_loss.calls", "count"),
    ("adapters.adapter_loss.self_s", "s"),
    ("adapters.aggregate_weights.calls", "count"),
    ("adapters.aggregate_weights.self_s", "s"),
    ("guidance.guided_eps_parts.self_s", "s"),
    ("guidance.GuidedSampler.sample.self_s", "s"),
    ("guidance.weight_cache_hit_ratio", "ratio"),
    ("guidance.network_evals_per_step", "evals/step"),
    ("metrics.ImageFeatureExtractor.transform.calls", "count"),
    ("metrics.ImageFeatureExtractor.transform.self_s", "s"),
    ("metrics.random_pair_distance.self_s", "s"),
    ("metrics.cross_influence.self_s", "s"),
    ("frequency.gaussian_lowpass.calls", "count"),
    ("frequency.gaussian_lowpass.self_s", "s"),
    ("prompts.encode_semantic.calls", "count"),
    ("pairs.generate_pair_dataset.self_s", "s"),
    ("checkpoint.save_backbone.self_s", "s"),
    ("checkpoint.save_adapter.self_s", "s"),
    ("checkpoint.load_backbone.self_s", "s"),
    ("checkpoint.load_adapter.self_s", "s"),
    ("checkpoint.file_sha256.self_s", "s"),
    ("checkpoint.bytes_written", "bytes"),
    ("validation.as_matrix.calls", "count"),
    # training stages: total time of the trainers' fit spans
    ("stage.base_fit_s", "s"),
    ("stage.trunk_fit_s", "s"),
    ("stage.adapter_fit_s", "s"),
    ("trace.spans", "count"),
)

STAGES = {
    "stage.base_fit_s": "denoiser.DenoiserTrainer.fit",
    "stage.trunk_fit_s": "subspace.TrunkFinetuner.fit",
    "stage.adapter_fit_s": "adapters.LoraTrainer.fit",
}


def _label(module_name, path):
    return f"{module_name.rsplit('.', 1)[-1]}.{path}"


def _label_for_count(module_name, path):
    # Backbone.__init__ counts constructions, reported as denoiser.Backbone.calls
    return _label(module_name, path.removesuffix(".__init__"))


class SpanRecorder:
    """In-memory spans and counts, plus the exact-repeat tallies."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.forward_rows = 0
        self.feature_inputs = set()
        self.gain_steps = 0
        self.network_evals = 0
        self.bytes_written = 0
        self._stack = []
        self._restore = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, post):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- post hooks: exact-repeat tallies measured at the call boundary --

    def _post_forward(self, args, result):
        self.forward_rows += args[0].shape[0]

    def _post_features(self, args, result):
        data = np.asarray(args[1]).tobytes()
        self.feature_inputs.add(hashlib.blake2b(data, digest_size=16).digest())

    def _post_guided_parts(self, args, result):
        eff_c, eff_s, _alpha = result[2]
        if eff_c != 0.0 or eff_s != 0.0:
            self.gain_steps += 1

    def _post_sample(self, args, result):
        self.network_evals += args[0].n_network_evals_

    def _post_save(self, args, result):
        self.bytes_written += os.path.getsize(args[0])

    def _post_hook(self, label):
        hooks = {
            "denoiser.forward_pass": self._post_forward,
            "subspace.PerceptualProxy.features": self._post_features,
            "guidance.guided_eps_parts": self._post_guided_parts,
            "guidance.GuidedSampler.sample": self._post_sample,
        }
        if label.startswith("checkpoint.save_"):
            return self._post_save
        return hooks.get(label)

    # -- installation -----------------------------------------------------

    def install(self):
        """Replace every target at each binding that holds it."""
        for module_name, path in SPANNED:
            label = _label(module_name, path)
            self._replace(
                module_name, path, lambda fn, lb=label: self._spanned(lb, fn, self._post_hook(lb))
            )
        for module_name, path in COUNTED:
            label = _label_for_count(module_name, path)
            self._replace(module_name, path, lambda fn, lb=label: self._counted(lb, fn))
        return self

    def _replace(self, module_name, path, make):
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._set(cls, attr, make(original), original)
            return
        original = getattr(module, path)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "craftlora" or mod_name.startswith("craftlora.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper, original)

    def _set(self, owner, attr, wrapper, original):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reporting --------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover;
        with one thread, children never overlap each other.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            calls, total, own = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (calls + 1, total + (end - start), own + (end - start - covered))
        return totals

    def write(self, path):
        """Dump the spans, one JSON array per line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


_NO_SPANS = (0, 0.0, 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(rec):
    """The ``PER_LAYER`` values of one traced phase, as name -> (value, unit)."""
    totals = rec.layer_totals()

    def calls(label):
        return rec.counts[label] if label in rec.counts else totals.get(label, _NO_SPANS)[0]

    derived = {
        "subspace.PerceptualProxy.features.unique_input_ratio": _ratio(
            len(rec.feature_inputs), calls("subspace.PerceptualProxy.features")
        ),
        "denoiser.forward_pass.rows_per_call": _ratio(
            rec.forward_rows, calls("denoiser.forward_pass")
        ),
        # 1 - aggregations per step that needs adapted weights; 0 without such steps
        "guidance.weight_cache_hit_ratio": (
            1.0 - calls("adapters.aggregate_weights") / rec.gain_steps if rec.gain_steps else 0.0
        ),
        "guidance.network_evals_per_step": _ratio(
            rec.network_evals, calls("guidance.guided_eps_parts")
        ),
        "checkpoint.bytes_written": rec.bytes_written,
        "trace.spans": len(rec.spans),
    }
    for metric, label in STAGES.items():
        derived[metric] = totals.get(label, _NO_SPANS)[1]

    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls(name.removesuffix(".calls"))
        else:
            value = totals.get(name.removesuffix(".self_s"), _NO_SPANS)[2]
        out[name] = (value, unit)
    return out
