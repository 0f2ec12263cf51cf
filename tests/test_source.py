import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordsim import rng
from coordsim.probkit import CondPmf, Pmf, joint_type, tv_distance
from coordsim.source import SOURCE_STREAM, ActionDraw, SourceConfig, draw_actions


def make_config(n=100, L=2, p0=None, flip=0.2):
    return SourceConfig(p0=p0 or Pmf.uniform(2),
                        obs_channel=CondPmf.binary_flip(flip), L=L, n=n)


class TestConfig:
    def test_rejects_bad_agent_count(self):
        with pytest.raises(ValueError):
            make_config(L=0)

    def test_rejects_bad_blocklength(self):
        with pytest.raises(ValueError):
            make_config(n=0)

    def test_rejects_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            SourceConfig(p0=Pmf.uniform(3), obs_channel=CondPmf.binary_flip(0.1),
                         L=1, n=4)


class TestDrawActions:
    def test_replay_determinism(self):
        cfg = make_config(n=64, L=3)
        a = draw_actions(cfg, seed=123, trial_index=7)
        b = draw_actions(cfg, seed=123, trial_index=7)
        assert np.array_equal(a.x_seq, b.x_seq)
        assert np.array_equal(a.xhat_seqs, b.xhat_seqs)

    def test_trials_differ(self):
        cfg = make_config(n=64)
        a = draw_actions(cfg, seed=123, trial_index=0)
        b = draw_actions(cfg, seed=123, trial_index=1)
        assert not np.array_equal(a.x_seq, b.x_seq)

    def test_seeds_differ(self):
        cfg = make_config(n=64)
        a = draw_actions(cfg, seed=1, trial_index=0)
        b = draw_actions(cfg, seed=2, trial_index=0)
        assert not np.array_equal(a.x_seq, b.x_seq)

    def test_identity_channel_copies_action(self):
        cfg = SourceConfig(p0=Pmf.uniform(2), obs_channel=CondPmf(np.eye(2)),
                           L=3, n=50)
        draw = draw_actions(cfg, seed=5, trial_index=0)
        for agent in range(3):
            assert np.array_equal(draw.xhat_seqs[agent], draw.x_seq)

    def test_point_mass_source_constant(self):
        cfg = SourceConfig(p0=Pmf([0.0, 1.0]),
                           obs_channel=CondPmf(np.eye(2)), L=1, n=40)
        draw = draw_actions(cfg, seed=5, trial_index=0)
        assert np.all(draw.x_seq == 1)

    def test_shapes_and_ranges(self):
        cfg = make_config(n=33, L=4)
        draw = draw_actions(cfg, seed=9, trial_index=2)
        assert isinstance(draw, ActionDraw)
        assert draw.x_seq.shape == (33,)
        assert draw.xhat_seqs.shape == (4, 33)
        assert draw.x_seq.min() >= 0 and draw.x_seq.max() <= 1

    def test_equals_stream_by_stream_reference(self):
        # stream 0 is the action and stream 1+l agent l's observation, each
        # sampled with searchsorted 'right'; the laws put one uniform of each
        # kind exactly on a cdf entry, which must count as passed
        seed, trial, n = 8, 3, 12
        base = rng.derive_key(seed, SOURCE_STREAM, trial)
        positions = np.arange(n, dtype=np.uint64)
        streams = [rng.uniforms(rng.fold(base, s), positions) for s in range(3)]
        u_x, u_obs = float(streams[0][3]), float(streams[1][5])
        cfg = SourceConfig(p0=Pmf([u_x, 1 - u_x]),
                           obs_channel=CondPmf(np.array([[u_obs, 1 - u_obs]] * 2)),
                           L=2, n=n)
        draw = draw_actions(cfg, seed, trial)
        x = np.searchsorted(rng.right_closed_cdf(cfg.p0.probs), streams[0], side="right")
        xhat = [[np.searchsorted(rng.right_closed_cdf(cfg.obs_channel.rows[a]), u, side="right")
                 for a, u in zip(x, stream)] for stream in streams[1:]]
        assert x[3] == 1 and xhat[0][5] == 1
        assert draw.x_seq.dtype == draw.xhat_seqs.dtype == np.int64
        assert np.array_equal(draw.x_seq, x)
        assert np.array_equal(draw.xhat_seqs, np.array(xhat))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**64 - 1), L=st.integers(1, 4), n=st.integers(1, 20),
           size=st.integers(2, 3), data=st.data())
    def test_array_of_trials_equals_per_trial_draws(self, seed, L, n, size, data):
        # the counter keys make a trial's draw independent of the batch it
        # is drawn in
        law = st.lists(st.integers(1, 5), min_size=size, max_size=size)
        p0 = np.array(data.draw(law), dtype=float)
        rows = np.array([data.draw(law) for _ in range(size)], dtype=float)
        cfg = SourceConfig(p0=Pmf(p0 / p0.sum()),
                           obs_channel=CondPmf(rows / rows.sum(axis=1, keepdims=True)), L=L, n=n)
        trials = data.draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=6))
        block = draw_actions(cfg, seed, np.array(trials))
        assert block.x_seq.shape == (len(trials), n)
        assert block.xhat_seqs.shape == (len(trials), L, n)
        for row, trial in enumerate(trials):
            alone = draw_actions(cfg, seed, trial)
            assert np.array_equal(block.x_seq[row], alone.x_seq)
            assert np.array_equal(block.xhat_seqs[row], alone.xhat_seqs)

    def test_empirical_law_matches_p0(self):
        # law of large numbers at 1e5 symbols
        p0 = Pmf([0.3, 0.7])
        cfg = SourceConfig(p0=p0, obs_channel=CondPmf.binary_flip(0.2),
                           L=1, n=100_000)
        draw = draw_actions(cfg, seed=31, trial_index=0)
        freq = np.bincount(draw.x_seq, minlength=2) / cfg.n
        assert tv_distance(freq[None, :], p0.probs[None, :]) < 0.01

    def test_observation_law_matches_channel(self):
        cfg = make_config(n=100_000, L=1, flip=0.2)
        draw = draw_actions(cfg, seed=31, trial_index=0)
        jt = joint_type(draw.x_seq, draw.xhat_seqs[0], 2, 2)
        expected = np.array([[0.4, 0.1], [0.1, 0.4]])
        assert tv_distance(jt / cfg.n, expected) < 0.01

    def test_observations_conditionally_independent(self):
        # chi-square style check of p(xh1, xh2 | x) against the product law
        cfg = make_config(n=4000, L=2, flip=0.3)
        counts = np.zeros((2, 2, 2))
        for trial in range(30):
            draw = draw_actions(cfg, seed=77, trial_index=trial)
            codes = draw.x_seq * 4 + draw.xhat_seqs[0] * 2 + draw.xhat_seqs[1]
            counts += np.bincount(codes, minlength=8).reshape(2, 2, 2)
        assert counts.sum() >= 1e5
        stat = 0.0
        for x in range(2):
            total = counts[x].sum()
            p1 = counts[x].sum(axis=1) / total
            p2 = counts[x].sum(axis=0) / total
            expected = total * np.outer(p1, p2)
            stat += float(((counts[x] - expected) ** 2 / expected).sum())
        # 2 cells of freedom; generous ceiling keeps the seeded check stable
        assert stat < 25.0
