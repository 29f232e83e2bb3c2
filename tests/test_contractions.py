"""The factored contractions against the single einsum calls they
replace. Each term of a route's contraction table is a fixed sequence
of two- and three-operand steps; its oracle is the one call it stands
for, kept here. Random tensors at n = 2..5, at a lone point and over a
batch of 7: the two agree to round-off, and a batch gives each point
the bits it gets alone."""

import numpy as np
import pytest

from normality_lab import calculus, experiments, normality

# operand ranks, by the argument names of the factoring functions
RANKS = {"gi": 2, "v": 1, "Lv": 1, "W": 1, "U": 1, "Flow": 1, "gradL": 2,
         "tLup": 2, "tU": 2, "tF": 2, "tgg": 3, "Dv": 4, "p": 1, "Vv": 1,
         "Qv": 1, "Dp": 4, "Tvals": 3, "P": 2, "A": 2, "B": 2, "alpha": 1,
         "grad_L": 2, "g_inv": 2, "dv": 4}

# term: (the single call it replaced, that call's operands); "skewA"
# stands for A - A^T
VELOCITY = {
    "alpha-tgg": ("...r,...qk,...s,...rsq->...k", "W gi v tgg"),
    "alpha-tF": ("...r,...qk,...qr->...k", "W gi tF"),
    "alpha-D": ("...mk,...s,...srqm,...r,...q->...k", "gi Lv Dv W v"),
    "beta-gradL": ("...qk,...rq,...s,...rs->...k", "gradL gi v gradL"),
    "beta-F": ("...qk,...rq,...r->...k", "gradL gi Flow"),
    "beta-tF": ("...r,...qk,...sq,...sr->...k", "W gradL gi tF"),
    "beta-tgg": ("...r,...qk,...sq,...m,...rms->...k", "W gradL gi v tgg"),
    "beta-D-v": ("...aq,...qk,...smra,...m,...r,...s->...k",
                 "gi gradL Dv v W Lv"),
    "beta-D-F": ("...am,...srka,...m,...r,...s->...k", "gi Dv Flow W Lv"),
    "B-D": ("...qr,...k,...m,...mksq->...rs", "gi W Lv Dv"),
    "C-tU": ("...r,...qm,...qs,...m->...rs", "U gi tU Lv"),
    "C-tLup": ("...s,...kr,...qk,...qm,...m->...rs", "U gradL gi tLup Lv"),
    "C-D": ("...aq,...mksa,...r,...m,...k,...q->...rs", "gi Dv U Lv W Lv"),
    "C-D-r": ("...mr,...qksa,...am,...k,...q->...rs", "gradL Dv gi W Lv"),
    "C-D-s": ("...ms,...qrka,...am,...k,...q->...rs", "gradL Dv gi W Lv"),
}
MOMENTUM = {
    "alpha-D": ("...s,...skrq,...r,...q->...k", "p Dp W Vv"),
    "beta-D": ("...smrk,...m,...r,...s->...k", "Dp Qv W p"),
    "B-D": ("...k,...m,...mrks->...rs", "W p Dp"),
    "C-D": ("...mqks,...r,...m,...k,...q->...rs", "Dp U p W p"),
}
GAUGE = {
    "U": ("...q,...riq,...r->...i", "W Tvals Lv"),
    "B": ("...m,...msq,...qk,...rk->...rs", "Lv Tvals P skewA"),
    "C-B": ("...brq,...b,...qm,...ms->...rs", "Tvals Lv P B"),
    "C-A": ("...brq,...b,...qm,...ma,...ca,...esc,...e->...rs",
            "Tvals Lv P A P Tvals Lv"),
    "beta": ("...ekq,...e,...q->...k", "Tvals Lv alpha"),
    "eta": ("...ekq,...e,...qs,...s->...k", "Tvals Lv P alpha"),
}


def _correction(grad_L, g_inv, dv):
    return {"correction": calculus._fiber_map_correction(grad_L, g_inv, dv)}


# the curvature relation's correction: two calls, the second the first
# with i and j swapped
CORRECTION = {"correction": (
    ("...qi,...sq,...kjrs->...krij", "grad_L g_inv dv"),
    ("...qj,...sq,...kirs->...krij", "grad_L g_inv dv"))}

TABLES = [
    (normality._velocity_contractions, VELOCITY,
     "gi v Lv W U Flow gradL tLup tU tF tgg Dv"),
    (normality._momentum_contractions, MOMENTUM, "p W Vv Qv U Dp"),
    (experiments._gauge_contractions, GAUGE, "Tvals Lv W P A B alpha"),
    (_correction, CORRECTION, "grad_L g_inv dv"),
]


def _operands(rng, args, n, batch):
    ops = {name: rng.uniform(-1.0, 1.0, batch + (n,) * RANKS[name])
           for name in args.split()}
    if "A" in ops:
        ops["skewA"] = ops["A"] - np.swapaxes(ops["A"], -1, -2)
    return ops


def _oracle(calls, ops, absolute=False):
    """The single calls, summed with alternating signs, or, with
    absolute, the sum of their terms' magnitudes: the scale round-off is
    measured against."""
    if isinstance(calls[0], str):
        calls = (calls,)
    out = 0.0
    for k, (spec, names) in enumerate(calls):
        args = [np.abs(ops[a]) if absolute else ops[a] for a in names.split()]
        term = np.einsum(spec, *args)
        out = out + (term if absolute or k % 2 == 0 else -term)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("batch", [(), (7,)])
@pytest.mark.parametrize("factored, table, args", TABLES,
                         ids=["velocity", "momentum", "gauge", "correction"])
def test_factored_terms_match_their_single_calls(factored, table, args, n,
                                                 batch):
    rng = np.random.default_rng([n, len(batch), len(table)])
    ops = _operands(rng, args, n, batch)
    got = factored(*(ops[a] for a in args.split()))
    assert set(got) == set(table)
    for term, calls in table.items():
        want = _oracle(calls, ops)
        assert got[term].shape == want.shape, term
        bound = 1e-13 * np.maximum(1.0, _oracle(calls, ops, absolute=True))
        assert np.all(np.abs(got[term] - want) <= bound), term


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("factored, table, args", TABLES,
                         ids=["velocity", "momentum", "gauge", "correction"])
def test_factored_terms_give_a_batch_the_bits_of_its_points(factored, table,
                                                            args, n):
    rng = np.random.default_rng([n, 7])
    ops = _operands(rng, args, n, (7,))
    batch = factored(*(ops[a] for a in args.split()))
    for k in range(7):
        alone = factored(*(ops[a][k] for a in args.split()))
        for term in table:
            assert np.array_equal(batch[term][k], alone[term]), (term, k)
