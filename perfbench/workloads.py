"""Seeded inputs, fixed anchors, correctness checks and known failures.

Each workload turns a seed into rounds of `wsdist` CLI argument lists.
The first round holds the workload's anchors, fixed inputs that run in
every run (the golden configuration and the defects measured when the
benchmark was defined); the rounds after it are drawn from the seed.

Checks run after the timed loop.  A check returns, per checked output,
its point (s for a density row, None otherwise) and its relative error
against a reference; an op fails when it exits non-zero or one of its
errors exceeds the tolerance.  Failures that match a known defect (an
anchor failing as measured, or a region of KNOWN_REGIONS within the
exit code, points and error size measured there) are counted but do not
make the run incorrect; any other failure does.
"""

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DENSITY_TOL = 1e-8
PAIR_TOL = 1e-8
ORACLE_TOL = 1e-4
ORACLE_SCHEDULE = "0.2,0.1,0.05,0.025"  # the package default, used by the acceptance criteria
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "density_prop1_mu0_nu1.csv"
H_POINT_OFFSET = 1e-6  # the package's convention h(1) := h(1 - 1e-6)

# Defects measured when the benchmark was defined.  They stay in the
# workloads so a fix reads as fewer failures, not as a change of inputs.
KNOWN_ANCHORS = {
    "pair-4d": "pair (0,30) bump 1,0.5: ToleranceError, exit 3 after ~5 s "
               "(absolute 1e-9 tolerance against a density growing like s^-31)",
    "density-nu45": "prop-1 F at (-4.1,45): s=0.8 gives -9.9e14+3.0e14i "
                    "(mpmath -8.86-2.07i), 0.8% off at s=0.9",
    "density-nu30": "prop-1 F at (7.3,30.2): relative error 2e4 at s=0.8",
    "density-mu3e-9": "prop-1 F at (3e-9,1): 5e-8 at s=0.5 (near-integer mu)",
    "density-mu2+3e-9": "prop-1 F at (2+3e-9,5): 1.7e-7 at s=0.65 (near-integer mu)",
}
ANCHOR_EXIT = {"pair-4d": 3}  # the exit code each anchor fails with; 0 if not listed
KNOWN_REGIONS = {
    "large-nu": "prop-1 density, nu > 12, s in [0.25, 1.2]: up to 5e17 relative error",
    "near-integer-mu": "density, mu within 1e-7 of an integer, s <= 1: up to 4e-4 "
                       "at 1e-10 from the integer (near-degenerate connection)",
    "parameter-snap": "density, (nu+-mu)/2 within the 1e-10 integer snap of 2F1 "
                      "but not integral: the output misses the reference's 1/delta size",
    "prop2-mu-minus-one": "prop 2 at mu = -1: PoleError from gamma(0), CLI traceback",
    "pair-accuracy": "a pairing exits 0 but misses the 1e-8 identity check: 4.5e-8 at "
                     "alpha 0, (-3.41,8), bump 1.32,0.39 (about 1 case in 2000)",
}
# The other regions cover an exit 0 with finite errors, and then only
# within the measured size of the error and range of s:
PAIR_ACCURACY_MAX = 1e-7
NEAR_INTEGER_MAX = 1e-3
SNAP_MAX = 1.0 + 1e-6  # |output| << |reference| reads as a relative error of 1
# the split form of F - 1 (|s - 1| < 0.2) and the x - i0 path below it;
# from s = 1.2 up another form is exact
LARGE_NU_S = (0.25, 1.2)
INT_SNAP = 1e-10  # specfun.hyp._INT_SNAP


@dataclass
class Op:
    argv: list
    params: dict
    anchor: str = None
    case: int = None
    check_rows: list = None  # density rows to check; None checks every row


# ---------------------------------------------------------------- orders

MU_KINDS = ("integer", "half-integer", "generic", "near-integer")


def _snap(rng, v, kind):
    if kind == "integer":
        return float(round(v))
    if kind == "half-integer":
        return math.floor(v) + 0.5
    if kind == "near-integer":
        return round(v) + rng.choice((-1, 1)) * rng.uniform(1e-10, 1e-8)
    return v


def _orders(rng, prop, nu_max, mu_kind, draw=None, nu_kind=None):
    """(mu, nu) with |mu| <= 10, -1 < nu <= nu_max, nu + 2 > |mu|, and
    mu + 2 > |nu| for prop 2; mu of the given kind, nu of `nu_kind` or
    else integer, half-integer or generic by a fair draw.  Before its
    snap, nu (prop 1) or mu (prop 2) is drawn from `draw`, by default
    (-1, nu_max) or (-2, 10)."""
    while True:
        if prop == 1:
            nu = rng.uniform(*(draw or (-1.0, nu_max)))
            lim = min(10.0, nu + 2.0)
            mu = rng.uniform(-lim, lim)
        else:
            mu = rng.uniform(*(draw or (-2.0, 10.0)))
            nu = mu + rng.uniform(-2.0, 2.0)
        mu, nu = _snap(rng, mu, mu_kind), _snap(rng, nu, nu_kind or rng.choice(MU_KINDS[:3]))
        if _order_ok(prop, mu, nu, nu_max):
            return mu, nu


def _order_ok(prop, mu, nu, nu_max):
    return (-1.0 < nu <= nu_max and abs(mu) <= 10.0 and nu + 2.0 > abs(mu)
            and (prop == 1 or mu + 2.0 > abs(nu)))


def _strata(lo, hi, n):
    """n equal strata of (lo, hi)."""
    return [(lo + (hi - lo) * j / n, lo + (hi - lo) * (j + 1) / n) for j in range(n)]


# ---------------------------------------------------------------- design

# A pairing costs 3-110 ms and a density grid 1-60 ms by its inputs, and
# adaptive quadratures and series make the cost jump with small changes
# of them: seeds drawn freely, or moved by 5-10 % within a fixed design,
# gave pair runs whose latency quantiles differed by 10-30 % on inputs
# alone.  The seeded rounds of pair and density are therefore a fixed
# design, drawn once from DESIGN_SEED as each workload describes, and the
# seed moves every input by at most JITTER: generic orders by that much,
# the ends of a grid and a bump's amplitude and half-width by that share
# of themselves, and its centre by that share of its half-width.
# Integer, half-integer and near-integer orders, and grids with s = 1 on
# them, stay put, and the design picks the density row that is checked,
# so that the failures a run counts do not depend on the seed either.
DESIGN_SEED = 0
JITTER = 1e-3


def _generic(v):
    """Neither an integer nor a half-integer, nor within 1e-6 of one."""
    return abs(2.0 * v - round(2.0 * v)) > 1e-6


def _moved(rng, v, scale):
    return v + rng.uniform(-1.0, 1.0) * JITTER * scale


# ------------------------------------------------------------------ pair

PAIR_NU_MAX = 12.0  # larger nu: single pairings ran 200-312 s
# Every design round has the same mix of bump placements and kinds of mu
# (the integer kind takes the logarithmic 2F1 connections, the others do
# not); its cases take nu from equal strata of (-1, 12], and the kinds of
# nu and the measures in equal numbers; and as many of its cases admit
# prop 2 as a case does on average (4 of 12), so every round has the same
# number of ops.
PAIR_ROUND = [(side, mu_kind) for side in ("straddle", "straddle", "left", "right")
              for mu_kind in MU_KINDS[:3]]
PAIR_NU_STRATA = _strata(-1.0, PAIR_NU_MAX, len(PAIR_ROUND))
PAIR_PROP2_CASES = 4


def _bump(rng, side):
    if side == "straddle":
        hw = rng.uniform(0.15, 0.6)
        center = rng.uniform(max(1.0 - hw + 0.05, 0.25 + hw), 1.0 + hw - 0.05)
    elif side == "left":
        hw = rng.uniform(0.05, 0.3)
        center = rng.uniform(0.25 + hw, 0.95 - hw)
    else:
        hw = rng.uniform(0.05, 0.8)
        center = rng.uniform(1.05 + hw, 3.0 - hw)
    amplitude = 1.0 if rng.random() < 0.5 else rng.uniform(0.5, 2.0)
    return center, hw, amplitude


def _bump_fits(side, center, hw):
    lo, hi = center - hw, center + hw
    if side == "straddle":
        return lo >= 0.25 and lo <= 0.95 and hi >= 1.05
    if side == "left":
        return lo >= 0.25 and hi <= 0.95
    return lo >= 1.05 and hi <= 3.0


def _balanced(rng, values, n):
    """n values, each of `values` equally often, in an order drawn from rng."""
    return rng.sample(tuple(values) * (n // len(values)), n)


def _pair_argv(mu, nu, prop, alpha, bump, measure):
    return ["pair", f"--mu={mu!r}", f"--nu={nu!r}", f"--prop={prop}",
            f"--alpha={alpha!r}", "--bump=" + ",".join(map(repr, bump)),
            f"--measure={measure}"]


def pair_rounds(seed):
    """Anchor round with the known-failing (0, 30) case, then the design
    rounds, every case moved by the seed.
    A case is prop 1 at alpha 0 and 1, plus prop 2 where mu + 2 > |nu|,
    all with one bump and measure."""
    yield [Op(["pair", "--mu", "0", "--nu", "30", "--prop", "1", "--bump", "1,0.5"],
              {"mu": 0.0, "nu": 30.0, "prop": 1}, anchor="pair-4d")]
    design, rng = random.Random(DESIGN_SEED), random.Random(seed)
    case = 0
    while True:
        cases = _pair_cases(design)
        while sum(mu + 2.0 > abs(nu) for mu, nu, *_ in cases) != PAIR_PROP2_CASES:
            cases = _pair_cases(design)
        ops = []
        for mu, nu, side, (center, hw, amplitude), measure in cases:
            prop2 = mu + 2.0 > abs(nu)
            while True:
                m, n = _moved(rng, mu, _generic(mu)), _moved(rng, nu, _generic(nu))
                bump = (_moved(rng, center, hw), _moved(rng, hw, hw),
                        _moved(rng, amplitude, amplitude))
                if (_order_ok(1, m, n, PAIR_NU_MAX) and (m + 2.0 > abs(n)) == prop2
                        and _bump_fits(side, *bump[:2])):
                    break
            for prop, alpha in [(1, 0.0), (1, 1.0)] + [(2, 0.0)] * prop2:
                ops.append(Op(_pair_argv(m, n, prop, alpha, bump, measure),
                              {"mu": m, "nu": n, "prop": prop, "alpha": alpha},
                              case=case))
            case += 1
        yield ops


def _pair_cases(rng):
    """One design round: per PAIR_ROUND slot, mu, nu, the bump's side,
    its centre, half-width and amplitude, and the measure."""
    strata = rng.sample(PAIR_NU_STRATA, len(PAIR_NU_STRATA))
    nu_kinds = _balanced(rng, MU_KINDS[:3], len(PAIR_ROUND))
    measures = _balanced(rng, ("lebesgue", "haar"), len(PAIR_ROUND))
    return [_orders(rng, 1, PAIR_NU_MAX, mu_kind, nu_draw, nu_kind)
            + (side, _bump(rng, side), measure)
            for (side, mu_kind), nu_draw, nu_kind, measure
            in zip(PAIR_ROUND, strata, nu_kinds, measures)]


def check_pair(ops, results):
    """Criterion-08 real-part identity (prop 2 against Re prop 1) and
    criterion-11 alpha invariance (alpha 1 against alpha 0), relative to
    max(1, |value|).  Returns {op index: [(None, error)]}; the alpha-0 op
    is the reference of its case and carries no error of its own."""
    errors = {}
    cases = {}
    for i, op in enumerate(ops):
        if op.case is not None:
            cases.setdefault(op.case, []).append(i)
    for members in cases.values():
        base = members[0]
        if results[base].code != 0:
            continue
        ref = _pair_value(results[base].text)
        scale = max(1.0, abs(ref))
        for i in members[1:]:
            if results[i].code != 0:
                continue
            value = _pair_value(results[i].text)
            target = ref.real if ops[i].params["prop"] == 2 else ref
            errors[i] = [(None, abs(value - target) / scale)]
    return errors


def _pair_value(text):
    v = json.loads(text)["value"]
    return complex(v["re"], v["im"])


# --------------------------------------------------------------- density

DENSITY_NU_MAX = 50.0
# Every round has the same mix of propositions, grid kinds and kinds of
# mu.  The four ops of a proposition and grid kind draw nu (prop 1) or mu
# (prop 2) from equal strata of its range, and their grid sizes from equal
# strata of theirs, so that rounds differ less in cost.
DENSITY_ORDER_STRATA = {1: _strata(-1.0, DENSITY_NU_MAX, len(MU_KINDS)),
                        2: _strata(-2.0, 10.0, len(MU_KINDS))}
_DEFAULT_GRID = ["--s-min", "0.25", "--s-max", "3", "--s-steps", "56"]


def _density_op(mu, nu, prop, grid, anchor=None):
    argv = ["density", f"--mu={mu!r}", f"--nu={nu!r}", f"--prop={prop}"] + grid
    return Op(argv, {"mu": mu, "nu": nu, "prop": prop}, anchor=anchor)


def density_rounds(seed):
    """Anchor round (golden grid and the measured defects, every row
    checked), then the design rounds, every invocation moved by the seed
    and one row of it checked."""
    anchors = [
        _density_op(0.0, 1.0, 1, ["--s-min", "0.25", "--s-max", "3.0", "--s-steps", "12"],
                    anchor="golden"),
        _density_op(-4.1, 45.0, 1, _DEFAULT_GRID, anchor="density-nu45"),
        _density_op(7.3, 30.2, 1, _DEFAULT_GRID, anchor="density-nu30"),
        _density_op(3e-9, 1.0, 1, _DEFAULT_GRID, anchor="density-mu3e-9"),
        _density_op(2 + 3e-9, 5.0, 1, _DEFAULT_GRID, anchor="density-mu2+3e-9"),
    ]
    yield anchors
    design, rng = random.Random(DESIGN_SEED), random.Random(seed)
    while True:
        ops = []
        for prop, mu, nu, (lo, hi, steps), one_on_grid, row in _density_design(design):
            while True:
                m, n = _moved(rng, mu, _generic(mu)), _moved(rng, nu, _generic(nu))
                if _order_ok(prop, m, n, DENSITY_NU_MAX):
                    break
            while not one_on_grid:
                a, b = _moved(rng, lo, lo), _moved(rng, hi, hi)
                if 0.25 <= a < b <= 3.0:
                    lo, hi = a, b
                    break
            op = _density_op(m, n, prop, [f"--s-min={lo!r}", f"--s-max={hi!r}",
                                          f"--s-steps={steps}"])
            op.check_rows = [row]
            ops.append(op)
        yield ops


def _density_design(rng):
    """One design round: prop, mu, nu, grid (s-min, s-max, steps),
    whether s = 1 is on the grid, and the row to check."""
    n = len(MU_KINDS)
    for prop, one_on_grid in itertools.product((1, 2), (True, False)):
        orders = rng.sample(DENSITY_ORDER_STRATA[prop], n)
        sizes = [rng.sample(range(n), n) for _ in range(2)]
        for j, mu_kind in enumerate(MU_KINDS):
            mu, nu = _orders(rng, prop, DENSITY_NU_MAX, mu_kind, orders[j])
            if one_on_grid:
                # dyadic spacing puts s = 1 exactly on the grid
                below = _int_stratum(rng, 1, 24, sizes[0][j], n)
                above = _int_stratum(rng, 1, 64, sizes[1][j], n)
                grid = 1.0 - below / 32.0, 1.0 + above / 32.0, below + above + 1
            else:
                lo = rng.uniform(0.25, 1.5)
                grid = lo, rng.uniform(lo + 0.1, 3.0), _int_stratum(rng, 8, 64, sizes[0][j], n)
            yield prop, mu, nu, grid, one_on_grid, rng.randrange(grid[2])


def _int_stratum(rng, lo, hi, j, n):
    """An integer from the j-th of n equal strata of lo..hi."""
    width = hi - lo + 1
    return rng.randint(lo + width * j // n, lo + width * (j + 1) // n - 1)


def _density_reference(prop, mu, nu, s):
    """(F, h) in mpmath: F = s^(-nu-1) G 2F1(a, b; nu+1; s^-2), limit from
    below (x - i0) on s < 1; prop 2 is the two-branch m0."""
    import mpmath as mp

    mu, nu = mp.mpf(mu), mp.mpf(nu)

    def dens(s):
        s = mp.mpf(s)
        if prop == 2 and s < 1:
            a, b, c = (mu + nu) / 2, (mu - nu) / 2, mu + 1
            pre = mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(c)
            return s ** (mu - 1) * pre * mp.hyp2f1(a, b, c, s * s)
        a, b, c = (nu + mu) / 2, (nu - mu) / 2, nu + 1
        pre = mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(c)
        x = s ** -2
        z = mp.mpc(x, -mp.mpf(10) ** -40) if s < 1 else x
        val = s ** (-nu - 1) * pre * mp.hyp2f1(a, b, c, z)
        return mp.re(val) if prop == 2 else val

    if s == 1.0:
        sh = mp.mpf(1) - H_POINT_OFFSET
        return mp.mpf(1), (dens(sh) - 1) / (sh - 1)
    F = dens(s)
    return F, (F - 1) / (mp.mpf(s) - 1)


def _rel(value, ref):
    import mpmath as mp

    return float(abs(mp.mpc(value) - ref) / max(abs(ref), mp.mpf(10) ** -300))


def check_density(op, text):
    """(s, relative error) on the op's checked rows, the error the max of
    F's and h's; the golden anchor must also match byte for byte."""
    # mpmath loads only here, after the timed loop: wsdist does not use it
    import mpmath as mp

    if op.anchor == "golden" and text.encode() != GOLDEN.read_bytes():
        return [(None, math.inf)]
    prop = op.params["prop"]
    rows = text.splitlines()[1:]
    picked = range(len(rows)) if op.check_rows is None else op.check_rows
    errors = []
    with mp.workdps(30):
        for i in picked:
            v = [float(x) for x in rows[i].split(",")]
            if prop == 1:
                s, F, h = v[0], complex(v[1], v[2]), complex(v[3], v[4])
            else:
                s, F, h = v
            F_ref, h_ref = _density_reference(prop, op.params["mu"], op.params["nu"], s)
            errors.append((s, max(_rel(F, F_ref), _rel(h, h_ref))))
    return errors


# ---------------------------------------------------------------- oracle

# The acceptance orders with the bump 1,0.5, which straddles s = 1 (delta
# and PV terms).  The acceptance bump 1.8,0.3 is left out: its cases run
# in about 37 s against 45-55 s, and with one case per run the seed would
# set the run time.
ORACLE_CASES = [(1, 0.0, 1.0), (1, 0.5, 1.5), (2, 1.0, 1.0), (2, 0.0, 1.0)]
ORACLE_BUMP = "1,0.5"


def oracle_rounds(seed):
    """No anchor round, then one acceptance case picked by the seed."""
    yield []
    prop, mu, nu = ORACLE_CASES[random.Random(seed).randrange(len(ORACLE_CASES))]
    yield [Op(["oracle", f"--mu={mu!r}", f"--nu={nu!r}", f"--prop={prop}",
               f"--bump={ORACLE_BUMP}", f"--eps-schedule={ORACLE_SCHEDULE}",
               f"--tol={ORACLE_TOL!r}"],
              {"mu": mu, "nu": nu, "prop": prop})]


def check_oracle(text):
    return [(None, json.loads(text)["report"]["rel_deviation"])]


# ------------------------------------------------------------ failures

def known_failure(op, result, bad):
    """The KNOWN_ANCHORS or KNOWN_REGIONS key that covers a failing op, or
    None.  `bad` holds the (s or None, error) pairs over the tolerance."""
    if op.anchor:
        if op.anchor in KNOWN_ANCHORS and result.code == ANCHOR_EXIT.get(op.anchor, 0):
            return op.anchor
        return None
    mu, nu, prop = op.params["mu"], op.params["nu"], op.params["prop"]
    if prop == 2 and mu == -1.0:
        return "prop2-mu-minus-one" if result.error == "PoleError" else None
    if result.code != 0 or not all(math.isfinite(e) for _, e in bad):
        return None
    worst = max(e for _, e in bad)
    if op.argv[0] == "pair":
        return "pair-accuracy" if worst <= PAIR_ACCURACY_MAX else None
    points = [s for s, _ in bad]
    if _snapped(mu, nu) and worst <= SNAP_MAX:
        return "parameter-snap"
    if 0.0 < abs(mu - round(mu)) <= 1e-7 and worst <= NEAR_INTEGER_MAX and max(points) <= 1.0:
        return "near-integer-mu"
    if prop == 1 and nu > 12.0 and LARGE_NU_S[0] <= min(points) and max(points) <= LARGE_NU_S[1]:
        return "large-nu"
    return None


def _snapped(mu, nu):
    """A 2F1 parameter (nu +- mu)/2 within the package's integer snap of a
    non-positive integer without being one: the package then sums the
    terminating series of the neighbouring integer."""
    return any(v < 0.5 and 0.0 < abs(v - round(v)) < INT_SNAP
               for v in ((nu + mu) / 2, (nu - mu) / 2, (mu - nu) / 2))


WORKLOADS = {
    "pair": pair_rounds,
    "density": density_rounds,
    "oracle": oracle_rounds,
}
# A run is a fixed list of ops, the anchor round and ROUNDS seeded
# rounds, so a seed always gives the same ops and failures.  The run
# repeats the seeded ops in passes for as long as --seconds allows, at
# least MIN_PASSES times, and times each op at its mean speed-scaled time
# over the passes (see run.py and speed.py).  A pass takes 3.5-6 s in pair
# and 1.5-3 s in density on a 2-core VM, so at 25 s a run makes 3-5
# passes in pair and 8-11 in density; the oracle's one case outlasts any
# run's time budget and runs once.
ROUNDS = {"pair": 4, "density": 12, "oracle": 1}
MIN_PASSES = {"pair": 3, "density": 3, "oracle": 1}
