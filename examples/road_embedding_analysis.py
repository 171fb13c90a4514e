"""Inspect GridGNN road-segment embeddings (paper §IV-B / Fig. 7a).

    python examples/road_embedding_analysis.py

Trains RNTrajRec briefly so GridGNN's embeddings absorb trajectory
supervision, then probes two structural properties the paper attributes
to road-network-aware representations:

1. **neighbor coherence** — graph neighbors should be closer in embedding
   space than random segment pairs;
2. **deck separation** — elevated segments should be distinguishable from
   the ground segments directly beneath them even though their geometry
   almost coincides.
"""

import numpy as np

from repro.core import RNTrajRec
from repro.train import Trainer
from repro.datasets import load_dataset
from repro.experiments import quick_train_config, small_model_config


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))


def main() -> None:
    data = load_dataset("chengdu", num_trajectories=120)
    network = data.network

    config = small_model_config(32)
    model = RNTrajRec(network, config)
    print("Training briefly so embeddings absorb trajectory supervision ...")
    Trainer(model, quick_train_config(5, clip_norm=5.0)).fit(data.train)

    embeddings = model.encoder.road_encoder().data  # (V, d)
    rng = np.random.default_rng(0)

    # 1) Neighbor coherence.
    neighbor_sims, random_sims = [], []
    indptr, successors, _ = network.csr_out_neighbors()
    for sid in range(network.num_segments):
        for nb in successors[indptr[sid]:indptr[sid + 1]][:2]:
            neighbor_sims.append(cosine(embeddings[sid], embeddings[nb]))
        other = int(rng.integers(0, network.num_segments))
        if other != sid:
            random_sims.append(cosine(embeddings[sid], embeddings[other]))
    print(f"mean cosine(neighbors)    = {np.mean(neighbor_sims):.3f}")
    print(f"mean cosine(random pairs) = {np.mean(random_sims):.3f}")
    print("=> graph structure is encoded" if np.mean(neighbor_sims) > np.mean(random_sims)
          else "=> warning: neighbors are not closer than random pairs")

    # 2) Deck separation: elevated vs the nearest ground segment.
    elevated = np.flatnonzero(network.elevated() & (network.levels() == 0))
    separations = []
    for sid in elevated[:20]:
        mid = network.position(sid, 0.5)
        ids, _ = network.segments_within_arrays(mid[0], mid[1], 60.0)
        ground = ids[~network.elevated()[ids]]
        if not len(ground):
            continue
        separations.append(1.0 - cosine(embeddings[sid], embeddings[ground[0]]))
    if separations:
        print(f"mean embedding distance elevated-vs-ground twin = {np.mean(separations):.3f}")
        print("(larger = decks are separable despite near-identical geometry)")

    # Nearest neighbors of one segment in embedding space.
    probe = int(elevated[0]) if len(elevated) else 0
    sims = embeddings @ embeddings[probe] / (
        np.linalg.norm(embeddings, axis=1) * np.linalg.norm(embeddings[probe]) + 1e-12
    )
    top = np.argsort(-sims)[:6]
    print(f"\nnearest neighbors of segment {probe} "
          f"({'elevated' if network.elevated()[probe] else 'ground'}):")
    for sid in top:
        print(f"  segment {sid:>4}  cos={sims[sid]:.3f}  level={network.levels()[sid]} "
              f"elevated={network.elevated()[sid]}")


if __name__ == "__main__":
    main()
