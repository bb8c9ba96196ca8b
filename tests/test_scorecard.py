"""Tests for the reproduction scorecard's verdict logic, on given factors."""


from repro.experiments import scorecard


def test_claims_cover_the_abstract():
    texts = " ".join(claim.text for claim in scorecard.CLAIMS)
    for keyword in ("memory-intensive", "tail latency", "database", "metadata", "cost"):
        assert keyword in texts


def test_claim_ranges_are_sane():
    for claim in scorecard.CLAIMS:
        assert 1.0 <= claim.paper_low <= claim.paper_high


def _measured(values):
    """Claim key -> factor, in CLAIMS order."""
    return {claim.key: value for claim, value in zip(scorecard.CLAIMS, values)}


def test_verdict_tiers():
    # One value per tier.  Claim 2 (database, 1.1-3.0x) has its range
    # bottom below half its best, so a bottom-of-range value demonstrates
    # plain REPRODUCES; narrow ranges (tail latency) jump straight to
    # STRONG at their bottom, which is fine.
    lows = [claim.paper_low for claim in scorecard.CLAIMS]
    highs = [claim.paper_high for claim in scorecard.CLAIMS]
    values = [
        highs[0],            # STRONG: at the paper's best
        highs[1],            # STRONG
        lows[2],             # REPRODUCES: bottom of a wide range
        1.01,                # PARTIAL: direction only (low is 2.6)
        0.9,                 # FAILS
    ]
    assert lows[2] < highs[2] / 2  # precondition for the REPRODUCES tier
    result = scorecard.run(_measured(values))
    verdicts = [row["verdict"] for row in result.rows]
    assert verdicts[0] == "STRONG"
    assert verdicts[1] == "STRONG"
    assert verdicts[2] == "REPRODUCES"
    assert verdicts[3] == "PARTIAL"
    assert verdicts[4] == "FAILS"


def test_render_includes_ranges():
    table = scorecard.render(scorecard.run(_measured([2.0] * len(scorecard.CLAIMS))))
    rendered = table.render()
    assert "Paper range" in rendered
    assert "2.0x" in rendered


def test_strong_requires_half_of_best():
    claim = scorecard.CLAIMS[0]
    just_below = claim.paper_high / 2 - 0.01
    result = scorecard.run(
        _measured([just_below] + [c.paper_low for c in scorecard.CLAIMS[1:]])
    )
    assert result.rows[0]["verdict"] == "REPRODUCES"  # not STRONG
