"""Tests for beam-search decoding (extension over the paper's greedy)."""

import numpy as np
import pytest

import reference
from repro import nn
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.core.decoder import RecoveryDecoder
from repro.roadnet import CityConfig, generate_city
from repro.trajectory import DatasetConfig, SimulationConfig, TrajectorySimulator, build_samples, make_batch

CFG = RNTrajRecConfig(hidden_dim=16, num_heads=2, max_subgraph_nodes=16,
                      receptive_delta=250.0, dropout=0.0)


@pytest.fixture(scope="module")
def city():
    return generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))


@pytest.fixture(scope="module")
def batch(city):
    sim = TrajectorySimulator(city, SimulationConfig(target_points=9, seed=2))
    samples = build_samples(sim.simulate(3), city, DatasetConfig(keep_every=4))
    return make_batch(samples)


def test_beam_output_contract(city, batch):
    decoder = RecoveryDecoder(city.num_segments, CFG)
    enc = nn.Tensor(np.random.default_rng(0).normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
    state = nn.Tensor(np.zeros((batch.size, CFG.hidden_dim)))
    constraint = batch.constraint_tensor(city.num_segments)
    segments, rates = decoder.decode_beam(enc, state, batch.target_length, constraint, beam_width=3)
    assert segments.shape == (batch.size, batch.target_length)
    assert np.all((segments >= 0) & (segments < city.num_segments))
    assert np.all((rates >= 0) & (rates < 1))


def test_beam_width_one_matches_greedy_score_path(city, batch):
    """With beam_width=1 the winning hypothesis is the greedy path."""
    decoder = RecoveryDecoder(city.num_segments, CFG)
    enc = nn.Tensor(np.random.default_rng(1).normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
    state = nn.Tensor(np.zeros((batch.size, CFG.hidden_dim)))
    constraint = batch.constraint_tensor(city.num_segments)
    greedy_seg, _ = decoder.decode_greedy(
        enc, state, batch.target_length, reference.constraint_from_dense(constraint))
    beam_seg, _ = decoder.decode_beam(enc, state, batch.target_length, constraint, beam_width=1)
    assert np.array_equal(greedy_seg, beam_seg)


def test_beam_respects_hard_mask(city, batch):
    decoder = RecoveryDecoder(city.num_segments, CFG)
    enc = nn.Tensor(np.random.default_rng(2).normal(size=(batch.size, batch.input_length, CFG.hidden_dim)))
    state = nn.Tensor(np.zeros((batch.size, CFG.hidden_dim)))
    constraint = np.zeros((batch.size, batch.target_length, city.num_segments))
    constraint[:, :, 7] = 1.0
    segments, _ = decoder.decode_beam(enc, state, batch.target_length, constraint, beam_width=3)
    assert np.all(segments == 7)


def test_model_level_beam_recovery(city, batch):
    model = RNTrajRec(city, CFG)
    model.eval()
    seg_greedy, _ = model.recover(batch)
    seg_beam, rates = model.recover(batch, beam_width=3)
    assert seg_beam.shape == seg_greedy.shape
    assert np.all((rates >= 0) & (rates < 1))
