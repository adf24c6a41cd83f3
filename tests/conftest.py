"""Shared builders for randomized operator-theory tests."""

from __future__ import annotations

import struct

import numpy as np
import pytest

import shiftlab as sl


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def float64_from_bits(bits: int) -> float:
    """The float64 whose IEEE 754 bit pattern is ``bits`` (0 <= bits < 2**64)."""
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def s_val(n):
    """Scalar profile of the ``ex31`` example shifts: 1 at 0, 1/n elsewhere."""
    return 1.0 if n == 0 else 1.0 / n


def random_matrix(rng, dim=2, scale=1.0):
    return scale * (rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim)))


def random_invertible(rng, dim=2, smin=0.2):
    while True:
        m = random_matrix(rng, dim)
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] > smin:
            return m


def random_unitary(rng, dim=2):
    return sl.nearest_unitary(random_matrix(rng, dim))


def random_diag_unitary(rng, dim=2):
    return np.diag(np.exp(2j * np.pi * rng.random(dim)))


def random_projection(rng, dim=2, rank=1):
    u = random_unitary(rng, dim)
    d = np.zeros(dim)
    d[:rank] = 1.0
    return u @ np.diag(d) @ u.conj().T


def ei_shift(rng, dim=2, lo=0, length=3, label="S"):
    """Random eventually-identity shift with invertible weights."""
    weights = [random_invertible(rng, dim) for _ in range(length)]
    return sl.BilateralShift(sl.EventuallyIdentityWeights(lo, weights),
                             label=label)


def conjugated_shift(rng, s, m=0, label="T", diagonal=False):
    """Shift equivalent to s by a single-band intertwiner at offset m.

    Builds T_n = V_n S_{n+m} V_{n-1}^* from random (optionally diagonal)
    unitaries V_n that are constant outside the (shifted) support, so T is
    eventually-identity.  Returns (T, entries) with the band entries used.
    """
    lo, hi = s.weights.described_range()
    lo_t, hi_t = lo - m, hi - m
    make = random_diag_unitary if diagonal else random_unitary
    v = {}
    for n in range(lo_t - 1, hi_t + 1):
        v[n] = make(rng, s.dim)

    def vat(n):
        return v[min(max(n, lo_t - 1), hi_t)]

    weights = [vat(n) @ s.weight(n + m) @ vat(n - 1).conj().T
               for n in range(lo_t - 1, hi_t + 2)]
    t = sl.BilateralShift(sl.EventuallyIdentityWeights(lo_t - 1, weights),
                          label=label)
    return t, vat


def dense_section(u, lo, hi):
    """Block matrix of the banded operator u on rows and columns lo..hi, with
    ``U_{i, i+k}`` from band k at row i and unstored entries zero.  A shift
    S is the band at offset -1: ``dense_section(sl.single_band(-1, S.weights),
    lo, hi)`` maps block n - 1 of a vector to ``S_n`` times it at block n."""
    d, n = u.dim, hi - lo + 1
    out = np.zeros((n * d, n * d), dtype=complex)
    for k in u.offsets:
        for i in range(max(lo, lo - k), min(hi, hi - k) + 1):
            if u.band(k).has_index(i):
                out[(i - lo) * d:(i - lo + 1) * d,
                    (i + k - lo) * d:(i + k - lo + 1) * d] = u.band(k).weight_at(i)
    return out


def perturb_one_singular_value(rng, shift, factor=1.25):
    """Scale one singular value of one interior weight by `factor`."""
    lo, hi = shift.weights.described_range()
    n = int(rng.integers(lo, hi + 1))
    w = shift.weight(n)
    x, s, yh = np.linalg.svd(w)
    which = int(rng.integers(0, len(s)))
    s = s.copy()
    s[which] *= factor
    new = x @ np.diag(s) @ yh
    mats = [new if k == n else shift.weight(k) for k in range(lo, hi + 1)]
    return sl.BilateralShift(sl.EventuallyIdentityWeights(lo, mats),
                             label=shift.label + "-perturbed")


def two_band_unitary(rng, dim=2, k1=-1, k2=1, span=(-10, 10), rank=None):
    """Two-band unitary from a rank-complementary projection pair.

    With P a projection and V_n unitaries, the bands ``A_n = P V_{n+k1}``
    and ``B_n = (I - P) V_{n+k2}`` satisfy the two-band unitarity relations
    for any offsets k1 < k2.
    """
    if rank is None:
        rank = int(rng.integers(1, dim))
    p = random_projection(rng, dim, rank)
    q = np.eye(dim) - p
    lo, hi = span
    v = [random_unitary(rng, dim) for _ in range(lo, hi + 1)]

    def vat(n):
        return v[min(max(n, lo), hi) - lo]

    band_a = sl.WindowedWeights(lo - k1, [p @ vat(n + k1)
                                          for n in range(lo - k1, hi - k1 + 1)])
    band_b = sl.WindowedWeights(lo - k2, [q @ vat(n + k2)
                                          for n in range(lo - k2, hi - k2 + 1)])
    return sl.BandedOperator({k1: band_a, k2: band_b})


def multi_band_unitary(rng, dim, offsets, span=(-10, 10)):
    """Unitary with one band per offset, built from an orthogonal resolution.

    Band k_i holds ``P_i V_{n+k_i}`` where the P_i are mutually orthogonal
    projections summing to I; every entry is a partial isometry.
    """
    u = random_unitary(rng, dim)
    ranks = _random_composition(rng, dim, len(offsets))
    projections = []
    start = 0
    for r in ranks:
        d = np.zeros(dim)
        d[start:start + r] = 1.0
        projections.append(u @ np.diag(d) @ u.conj().T)
        start += r
    lo, hi = span
    v = [random_unitary(rng, dim) for _ in range(lo, hi + 1)]

    def vat(n):
        return v[min(max(n, lo), hi) - lo]

    bands = {}
    for k, p in zip(offsets, projections):
        bands[k] = sl.WindowedWeights(
            lo - k, [p @ vat(n + k) for n in range(lo - k, hi - k + 1)])
    return sl.BandedOperator(bands)


def _random_composition(rng, total, parts):
    """`parts` positive integers summing to `total` (requires parts <= total)."""
    cuts = sorted(rng.choice(np.arange(1, total), size=parts - 1, replace=False)) \
        if parts > 1 else []
    bounds = [0] + list(cuts) + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _weight_cell(cell):
    return {"shifts": {"S": {"variant": "periodic", "weights": [[[cell]]]}}}


def _task(**fields):
    return {"tasks": [{"op": "norms", "shift": "S", "window": [0, 1], **fields}]}


def _op_task(**task):
    """One task over shift S and a one-band operator U."""
    return {**_band_keys("0"), "tasks": [task]}


def _windowed_shift(lo, count=1):
    """Shift S stored on rows lo .. lo + count - 1."""
    return {"shifts": {"S": {"variant": "windowed", "lo": lo,
                             "weights": [[[[2.0, 0.0]]]] * count}}}


def _band_keys(*keys):
    """An operator U with one band under each of the given offset keys."""
    band = {"variant": "periodic", "weights": [[[[1.0, 0.0]]]]}
    return {"operators": {"U": {"bands": {key: band for key in keys}}}}


#: Top-level overrides of a valid dim-1 document with one shift S, each
#: making it malformed, and the JSON path its SpecFormatError must name.
MALFORMED_SPECS = {
    "nan-weight": (_weight_cell([float("nan"), 0.0]), "shifts.S.weights[0][0][0]"),
    "inf-weight": (_weight_cell([0.0, float("inf")]), "shifts.S.weights[0][0][0]"),
    "minus-inf-weight": (_weight_cell([float("-inf"), 0.0]), "shifts.S.weights[0][0][0]"),
    "bool-weight": (_weight_cell([True, False]), "shifts.S.weights[0][0][0]"),
    "overflowing-int-weight": (_weight_cell([10 ** 400, 0]), "shifts.S.weights[0][0][0]"),
    "dim-true": ({"dim": True}, "dim"),
    "lo-false": ({"shifts": {"S": {"variant": "windowed", "lo": False,
                                   "weights": [[[[2.0, 0.0]]]]}}}, "shifts.S.lo"),
    "window-one-entry": (_task(window=[1]), "tasks[0].window"),
    "window-string": (_task(window=["a", 2]), "tasks[0].window"),
    "window-bool": (_task(window=[True, 2]), "tasks[0].window"),
    "window-not-array": (_task(window=3), "tasks[0].window"),
    "window-reversed": (_task(window=[3, 1]), "tasks[0].window"),
    "k-range-reversed": ({"tasks": [{"op": "norm_offset_screen", "s": "S", "t": "S",
                                     "k_range": [2, -2]}]}, "tasks[0].k_range"),
    "m-range-reversed": ({"tasks": [{"op": "decide", "s": "S", "t": "S",
                                     "m_range": [2, -2]}]}, "tasks[0].m_range"),
    "m-string": ({"tasks": [{"op": "decide", "s": "S", "t": "S", "m": "a"}]},
                 "tasks[0].m"),
    "m-true": ({"tasks": [{"op": "decide", "s": "S", "t": "S", "m": True}]}, "tasks[0].m"),
    "depth-zero": ({"tasks": [{"op": "decide", "s": "S", "t": "S", "m": 0, "depth": 0}]},
                   "tasks[0].depth"),
    "k-float": ({"tasks": [{"op": "eigen_moduli_screen", "s": "S", "t": "S", "k": 0.5}]},
                "tasks[0].k"),
    # rows and offsets beyond 10**5 and depths beyond 10**4 are refused before
    # any task runs: such a window would be allocated, such a range stepped through
    "window-huge": (_op_task(op="verify_unitary", operator="U", window=[-10**30, 10**30]),
                    "tasks[0].window"),
    "window-past-limit": (_task(window=[0, 10**5 + 1]), "tasks[0].window"),
    "k-range-huge": (_op_task(op="norm_offset_screen", s="S", t="S",
                              k_range=[-10**30, 10**30]), "tasks[0].k_range"),
    "m-range-past-limit": (_op_task(op="decide", s="S", t="S", m_range=[-10**5 - 1, 0]),
                           "tasks[0].m_range"),
    "m-huge": (_op_task(op="decide", s="S", t="S", m=10**30), "tasks[0].m"),
    "k-past-limit": (_op_task(op="eigen_moduli_screen", s="S", t="S", k=-10**5 - 1),
                     "tasks[0].k"),
    "depth-past-limit": (_op_task(op="decide", s="S", t="S", m=0, depth=10**4 + 1),
                         "tasks[0].depth"),
    # so are a sequence's stored rows lo .. lo + N - 1: a decision's automatic
    # window and depth grow with them
    "lo-huge": (_windowed_shift(10**30), "shifts.S.lo"),
    "lo-past-limit": (_windowed_shift(-10**5 - 1), "shifts.S.lo"),
    "hi-past-limit": (_windowed_shift(10**5, count=2), "shifts.S.lo"),
    "band-lo-huge": ({"operators": {"U": {"bands": {"-1": {
        "variant": "eventually_identity", "lo": -10**30, "weights": [[[[1.0, 0.0]]]]}}}}},
        "operators.U.bands.-1.lo"),
    # work budgets: a screen compares at most 10**7 (offset, row) pairs, a
    # decide task scans at most 100 offsets
    "screen-past-budget": (_op_task(op="norm_offset_screen", s="S", t="S", k_range=[0, 99],
                                    window=[0, 10**5]), "tasks[0].k_range"),
    "screen-wide-k-past-budget": (_op_task(op="norm_offset_screen", s="S", t="S",
                                           k_range=[-10**5, 10**5], window=[0, 49]),
                                  "tasks[0].k_range"),
    "m-range-past-budget": (_op_task(op="decide", s="S", t="S", m_range=[0, 100]),
                            "tasks[0].m_range"),
    "expect-passed": (_op_task(op="verify_unitary", operator="U", expect="passed"),
                      "tasks[0].expect"),
    "expect-null": (_op_task(op="verify_unitary", operator="U", expect=None),
                    "tasks[0].expect"),
    "expect-verdict-misspelt": (_op_task(op="decide", s="S", t="S", m=0,
                                         expect="equivalnt"), "tasks[0].expect"),
    "expect-shift-on-verdict": (_op_task(op="decide", s="S", t="S", m=0,
                                         expect="shift"), "tasks[0].expect"),
    "expect-pass-on-conjugation": (_op_task(op="conjugate_to_shift", operator="U",
                                            s="S", expect="pass"), "tasks[0].expect"),
    "expect-on-norms": (_task(expect="pass"), "tasks[0].expect"),
    "expect-feasible-string": (_op_task(op="norm_offset_screen", s="S", t="S",
                                        expect_feasible="x"),
                               "tasks[0].expect_feasible"),
    "expect-feasible-float": (_op_task(op="norm_offset_screen", s="S", t="S",
                                       expect_feasible=[0, 0.5]),
                              "tasks[0].expect_feasible"),
    "mode-two": (_op_task(op="verify_unitary", operator="U", mode="two"),
                 "tasks[0].mode"),
    "mode-array": (_op_task(op="verify_unitary", operator="U", mode=["banded"]),
                   "tasks[0].mode"),
    "decide-without-offset": (_op_task(op="decide", s="S", t="S"), "tasks[0].m"),
    "decide-m-and-m-range": (_op_task(op="decide", s="S", t="S", m=0, m_range=[0, 1]),
                             "tasks[0].m"),
    "decide-without-t": (_op_task(op="decide", s="S", m=0), "tasks[0].t"),
    "intertwining-without-s": (_op_task(op="verify_intertwining", operator="U", t="S"),
                               "tasks[0].s"),
    "unitary-without-operator": (_op_task(op="verify_unitary"), "tasks[0].operator"),
    "positive-form-without-shift": (_op_task(op="positive_form"), "tasks[0].shift"),
    "shift-name-array": (_task(shift=["S"]), "tasks[0].shift"),
    "shift-name-null": (_task(shift=None), "tasks[0].shift"),
    # check_diagonal_propagation takes both shifts or neither
    "propagation-without-t": (_op_task(op="diagonal_propagation", operator="U", s="S"),
                              "tasks[0].t"),
    "propagation-without-s": (_op_task(op="diagonal_propagation", operator="U", t="S"),
                              "tasks[0].s"),
    "label-array": (_task(label=["x"]), "tasks[0].label"),
    # band offsets are read only in canonical form: "01" and "1" would alias one band
    "band-key-alias": (_band_keys("1", "01"), "operators.U.bands"),
    "band-key-plus-alias": (_band_keys("+1", "1"), "operators.U.bands"),
    "band-key-underscore": (_band_keys("1_0"), "operators.U.bands"),
    "band-key-padded": (_band_keys(" 1"), "operators.U.bands"),
    "band-key-not-integer": (_band_keys("a"), "operators.U.bands"),
    # past Python's integer-string digit limit int() raises ValueError
    "band-key-5000-digits": (_band_keys("1" * 5000), "operators.U.bands"),
    # a banded operator needs at least one band
    "bands-empty": ({"operators": {"U": {"bands": {}}}}, "operators.U.bands"),
    # each level of the document has its JSON type: objects, arrays, nonempty weights
    "operator-without-bands": ({"operators": {"U": {"0": {}}}}, "operators.U"),
    "shifts-not-object": ({"shifts": [["S"]]}, "shifts"),
    "operators-not-object": ({"operators": ["U"]}, "operators"),
    "tasks-not-array": ({"tasks": {"op": "norms"}}, "tasks"),
    "shift-not-object": ({"shifts": {"S": [[[[2.0, 0.0]]]]}}, "shifts.S"),
    "weights-empty": ({"shifts": {"S": {"variant": "periodic", "weights": []}}},
                      "shifts.S.weights"),
    "task-not-object": ({"tasks": ["norms"]}, "tasks[0]"),
}


def malformed_spec(name):
    """(document, path) for one entry of MALFORMED_SPECS."""
    override, path = MALFORMED_SPECS[name]
    doc = {"dim": 1, "shifts": {"S": {"variant": "periodic", "weights": [[[[2.0, 0.0]]]]}}}
    doc.update(override)
    return doc, path


#: One task block per task op, ``verify_unitary`` once per mode and
#: ``decide`` with ``m`` and with ``m_range``; see ``every_op_model``.
EVERY_OP_TASKS = [
    {"op": "verify_intertwining", "operator": "U", "s": "S", "t": "T"},
    {"op": "verify_unitary", "operator": "U", "mode": "banded"},
    {"op": "verify_unitary", "operator": "U", "mode": "two_band"},
    {"op": "verify_unitary", "operator": "U3", "mode": "three_band"},
    {"op": "two_band_structure", "operator": "U"},
    {"op": "diagonal_propagation", "operator": "U", "s": "S", "t": "T"},
    {"op": "band_count_bound", "operator": "U"},
    {"op": "conjugate_to_shift", "operator": "U", "s": "S"},
    {"op": "positive_form", "shift": "S"},
    {"op": "norms", "shift": "S"},
    {"op": "norm_offset_screen", "s": "S", "t": "T"},
    {"op": "eigen_moduli_screen", "s": "S", "t": "T"},
    {"op": "decide", "s": "S", "t": "T", "m": 0},
    {"op": "decide", "s": "S", "t": "T", "m_range": [0, 1]},
]


def every_op_model():
    """The shifts and operator of ``ex31`` with the three-band operator of
    ``ex33-three-band`` as U3, and ``EVERY_OP_TASKS`` on the window [-3, 3]."""
    ex = sl.load_example("ex31")
    operators = {**ex.operators, "U3": sl.load_example("ex33-three-band").operators["U"]}
    return sl.SpecModel(dim=2, shifts=ex.shifts, operators=operators,
                        tasks=[{**task, "window": [-3, 3]} for task in EVERY_OP_TASKS])
