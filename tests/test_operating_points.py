import dataclasses
import warnings

from diarkit import cli, scoring
from diarkit.config import Config
from diarkit.diarizer import diarize
from operating_points import cell, session


def test_cell_extracts_once_and_matches_direct_runs(monkeypatch):
    audio, reference, sad = session(20.0)
    cfg = Config(n_speakers=4, feature_kind="mfcc91", seed=3)
    extract = cli.extract_session_features
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)

    monkeypatch.setattr(cli, "extract_session_features", counted)
    rows = cell(audio, reference, sad, cfg, [1.0, 0.5])
    assert len(calls) == 1
    assert [min_dur for min_dur, _, _ in rows] == [1.0, 0.5]
    for min_dur, breakdown, meta in rows:
        direct_cfg = dataclasses.replace(cfg, min_duration_sec=min_dur)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            feats, _ = extract(audio, sad, direct_cfg)
            hyp, direct_meta = diarize(feats, direct_cfg)
        assert breakdown == scoring.score_der(reference, hyp)
        assert meta["merge_trace"] == direct_meta["merge_trace"]
