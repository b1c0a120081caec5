import numpy as np
import pytest

from craftlora.denoiser import DenoiserTrainer, NoiseSchedule, forward_pass
from craftlora.pairs import generate_pair_dataset
from craftlora.prompts import encode_semantic
from craftlora.subspace import member_embedding


def dataset_arrays(pairs):
    """Stack pair members with their member-prompt embeddings."""
    images, embeddings = [], []
    for pair in pairs:
        images.append(pair.content_image)
        embeddings.append(member_embedding(pair, "content"))
        images.append(pair.style_image)
        embeddings.append(member_embedding(pair, "style"))
    return np.stack(images), np.stack(embeddings)


def eps_of_image(x, t, embedding, backbone):
    """Noise prediction for one (H, W) image as a one-row forward pass.

    The single-image reference that the batched paths are compared with;
    ``embedding`` None is the null embedding.
    """
    cond = None if embedding is None else np.asarray(embedding, dtype=np.float64)[None, :]
    out, _ = forward_pass(np.reshape(x, (1, -1)), int(t), cond, backbone)
    return out.reshape(np.shape(x))


@pytest.fixture(scope="session")
def one_row_eps():
    return eps_of_image


@pytest.fixture(scope="session")
def schedule():
    return NoiseSchedule.linear()


@pytest.fixture(scope="session")
def pair_dataset():
    return generate_pair_dataset(10, 10, seed=0)


@pytest.fixture(scope="session")
def trained_base(pair_dataset):
    """One modestly trained 16x16 base model shared across the suite."""
    images, embeddings = dataset_arrays(pair_dataset)
    trainer = DenoiserTrainer(steps=600, seed=0)
    trainer.fit(images, embeddings)
    return trainer.backbone_


@pytest.fixture(scope="session")
def null64():
    return np.zeros(64)


@pytest.fixture(scope="session")
def semantic():
    return encode_semantic
