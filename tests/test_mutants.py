"""Committed mutants: each is one named monkeypatch of one fast path with a
plausible bug, and its test names the ``selftest`` suite that kills it.

A mutant that no suite kills is a finding about the suites; it stays
here, marked as such, until a suite kills it.
"""

from __future__ import annotations

from moment_fiber import cli, polytope, torus


def accepts_nonnegative_combination(w):
    """``is_stable`` accepting a combination that is only nonnegative: 0 in
    the hull of the weights, the lifted system sum x_i (s_i, 1) = (0, 1)
    with x >= 0, instead of in its relative interior."""
    x, _, _ = polytope._phase_one(
        [p + (1,) for p in w.matrix.entries], [0] * w.r + [1]
    )
    return x is not None, None


def test_stability_suite_kills_a_nonnegative_combination(capsys, monkeypatch):
    # [[0, 0, 0], [5, 5, 0]] has 0 in its hull, at the zero row, but not
    # in the relative interior: the default run's first stability line.
    monkeypatch.setattr(torus, "is_stable", accepts_nonnegative_combination)
    assert cli.main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "stability: seed=0 weights=[[0, 0, 0], [5, 5, 0]]\n" in out
