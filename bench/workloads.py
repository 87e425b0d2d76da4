"""Seeded job generators for the benchmark workloads.

Every workload is a list of strata.  A stratum fixes the shape of a job
(command, p, r, e, degree D, number of terms, multiplier residue), so
jobs of one stratum cost about the same; the seed draws the content
(multiplier tail, degrees, coefficients).

Inputs come in two steps:

* the *pool*: ``VARIANTS`` jobs per stratum, drawn from ``POOL_SEED``.
  The committed reference (``bench/reference/``) holds the expected
  output of every pool job, so any run seed can be checked exactly;
* the *run*: the run seed draws a sequence of blocks; a block holds one
  pool variant of every stratum, in a seeded order.  A run is a whole
  number of blocks, so every run sees the same mix.

A job is ``(job_id, argv_tail, payload)``; the benchmark writes the
payload to a JSON file and passes ``argv_tail + ["--job", path]`` to
``lindisc.cli.main``.  The program receives only those job files.
"""

import hashlib
import json
import math
import random

# The committed reference holds the outputs of this pool; a new pool
# needs its reference re-recorded (bench/reference.py) on the parent commit.
POOL_SEED = 1
VARIANTS = 16


# -- literals ------------------------------------------------------------------


def _elem(rng, p, r):
    """A nonzero residue-field element literal (a polynomial in b for r > 1)."""
    if r == 1:
        return str(rng.randrange(1, p))
    while True:
        vec = [rng.randrange(p) for _ in range(r)]
        if any(vec):
            break
    terms = []
    for power, c in enumerate(vec):
        if not c:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            b = "b" if power == 1 else f"b^{power}"
            terms.append(b if c == 1 else f"{c}*{b}")
    return "+".join(terms)


def _term(rng, p, r, var, exp):
    c = _elem(rng, p, r)
    if exp == 0:
        return c
    if "+" in c:
        c = f"({c})"
    power = var if exp == 1 else f"{var}^{exp}"
    return power if c == "1" else f"{c}*{power}"


def _multiplier(rng, p, r, e, residue):
    """residue + c*V with V = T (e = 1) or U = T^(1/e); a random residue is
    drawn when ``residue`` is a tuple of equal-order choices.  The tail
    stays linear in V: the exact powers lambda^k the solvers form grow
    with its degree, and their cost would swamp the variation between
    maps of one stratum."""
    if isinstance(residue, tuple):
        residue = rng.choice(residue)
    var = "T" if e == 1 else "U"
    return f"{residue}+{_term(rng, p, r, var, 1)}"


def _table(rng, p, r, e, degrees):
    var = "T" if e == 1 else "U"
    top = 3 * e
    return {str(d): _term(rng, p, r, var, rng.randrange(0, top + 1)) for d in degrees}


# -- per-workload job shapes ---------------------------------------------------


def _family_job(rng, p, r, e, residue, n_deg, D):
    """`solve` on a p-divisible map like the acceptance family corpus."""
    degrees = rng.sample(range(p, 51, p), n_deg)
    payload = {
        "p": p,
        "r": r,
        "e": e,
        "lambda": _multiplier(rng, p, r, e, residue),
        "f": _table(rng, p, r, e, sorted(degrees)),
        "degree": D,
        "precision": {"initial": 32},
    }
    return [("solve", payload)]


def _generic_degrees(rng, p, n_deg, top=24):
    """Nonlinear degrees with a low degree prime to p and with the shifts
    d - 1 coprime, so b_k can be nonzero at almost every k.

    A plain draw can come out p-divisible (seed 7 gave {6, 12, 14, 22}
    over F_2), which silently turns the map into a family map; a draw
    like {3, 5} leaves every even b_k a structural zero."""
    first = rng.choice([d for d in (2, 3) if d % p])
    while True:
        degrees = [first] + rng.sample(range(4, top + 1), n_deg - 1)
        if math.gcd(*(d - 1 for d in degrees)) == 1:
            return sorted(degrees)


def _generic_job(rng, p, r, e, residue, n_deg, D, instances=2):
    """`sweep` over maps with a nonlinear degree prime to p."""
    insts = []
    for _ in range(instances):
        insts.append(
            {
                "lambda": _multiplier(rng, p, r, e, residue),
                "f": _table(rng, p, r, e, _generic_degrees(rng, p, n_deg)),
            }
        )
    payload = {
        "p": p,
        "r": r,
        "e": e,
        "degree": D,
        "tail": 8,
        "precision": {"initial": 32},
        "instances": insts,
    }
    return [("sweep", payload)]


def _divergence_job(rng, p, r, residue, nmax):
    """`certify-divergence` on lambda*x + a*x^(p+1) with a a unit: the
    valuation of a would change the length of every series the
    recurrence forms, and with it the job's cost."""
    payload = {
        "p": p,
        "r": r,
        "lambda": _multiplier(rng, p, r, 1, residue),
        "f": {str(p + 1): _term(rng, p, r, "T", 0)},
        "Nmax": nmax,
    }
    return [("certify-divergence", payload)]


def _disc_job(rng, p, r, residue, k_prime, degree_factor, kappa_max=None, analyze=True):
    """`analyze` then `disc` on lambda*x + c*x^(degree_factor*k').

    degree_factor 1 gives EXACT-SIGMA maps (boundary tower search);
    degree_factor p gives EXTENDED-RHO maps (b_{k'} is a structural
    zero).  Maps with ``analyze`` False run `disc` alone.  `analyze`
    takes 1-2 ms on every map and `disc` at least 5 ms, so if every map
    ran both, the median job would sit on the gap between the two
    groups; with `analyze` on 7 of the 12 maps it sits among the light
    `disc` jobs."""
    deg = degree_factor * k_prime
    payload = {
        "p": p,
        "r": r,
        "lambda": _multiplier(rng, p, r, 1, residue),
        "f": {str(deg): _term(rng, p, r, "T", rng.randrange(0, 3))},
    }
    if kappa_max is not None:
        payload["kappa_max"] = kappa_max
    if not analyze:
        return [("disc", payload)]
    return [("analyze", payload), ("disc", payload)]


# workload -> [(stratum, job function, its arguments after rng)]
WORKLOADS = {
    # degrees D (and Nmax, and which maps skip `analyze`) are set so that
    # the median and the tail sit inside one cost group rather than on the
    # gap between two, where they would jump between runs
    "family-solve": [
        ("p2-m1", _family_job, (2, 1, 1, "1", 4, 168)),
        ("p2-m1-wide", _family_job, (2, 1, 1, "1", 6, 144)),
        ("p3-m1", _family_job, (3, 1, 1, "1", 4, 184)),
        ("p3-m2", _family_job, (3, 1, 1, "2", 5, 172)),
        ("p5-m1", _family_job, (5, 1, 1, "1", 4, 195)),
        ("p5-m4", _family_job, (5, 1, 1, ("2", "3"), 6, 131)),
        ("f4", _family_job, (2, 2, 1, "b", 4, 75)),
        ("p3-e2", _family_job, (3, 1, 2, "1", 4, 144)),
    ],
    "generic-sweep": [
        ("p2", _generic_job, (2, 1, 1, "1", 4, 70)),
        ("p3", _generic_job, (3, 1, 1, ("1", "2"), 4, 56)),
        ("p5", _generic_job, (5, 1, 1, ("1", "2", "3"), 3, 57)),
        ("f4", _generic_job, (2, 2, 1, "b", 3, 40)),
        ("p3-e2", _generic_job, (3, 1, 2, "1", 3, 76)),
        ("f4-e2", _generic_job, (2, 2, 2, "b", 3, 44)),
    ],
    "divergence-ladder": [
        ("p2-N8", _divergence_job, (2, 1, "1", 8)),
        ("p3-N5", _divergence_job, (3, 1, "1", 5)),
        ("p5-N4", _divergence_job, (5, 1, "1", 4)),
        ("p7-N3", _divergence_job, (7, 1, "1", 3)),
        ("f4-conj", _divergence_job, (2, 2, "b", 7)),
        ("p3-conj", _divergence_job, (3, 1, "2", 5)),
        ("p5-conj", _divergence_job, (5, 1, ("2", "3"), 4)),
    ],
    # light maps (disc in 10-60 ms) set the median; the tower searches
    # (0.25-1 s) set the tail: kappa_max caps the period searched
    "disc-tower": [
        ("exact-p2", _disc_job, (2, 1, "1", 2, 1, None, False)),
        ("exact-p3", _disc_job, (3, 1, "2", 3, 1)),
        ("exact-p5", _disc_job, (5, 1, "1", 5, 1)),
        ("ext-p2", _disc_job, (2, 1, "1", 2, 2, None, False)),
        ("ext-p3", _disc_job, (3, 1, "1", 3, 3, None, False)),
        ("ext-p5", _disc_job, (5, 1, "1", 5, 5, None, False)),
        ("ext-p7", _disc_job, (7, 1, "1", 7, 7, None, False)),
        ("exact-f4", _disc_job, (2, 2, "b", 4, 1)),
        ("exact-f9", _disc_job, (3, 2, "b", 9, 1)),
        ("tower-p5", _disc_job, (5, 1, ("2", "3"), 5, 1)),
        ("tower-p5-k2", _disc_job, (5, 1, ("2", "3"), 5, 1, 2)),
        ("tower-p7-k1", _disc_job, (7, 1, ("3", "5"), 7, 1, 1)),
    ],
}


# Seconds one block takes at the reference machine's speed (see
# probe.py); run.py sizes a run from these.  On a loaded host a block
# takes up to twice as long in wall time.
BLOCK_S = {
    "family-solve": 1.1,
    "generic-sweep": 1.15,
    "divergence-ladder": 0.55,
    "disc-tower": 1.0,
}


def job_sha(argv_tail, payload):
    """Identity of a job's input: command line plus canonical JSON payload."""
    blob = json.dumps([argv_tail, payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pool(workload):
    """{item_id: [(job_id, argv_tail, payload), ...]} for every stratum variant.

    An item is one map; its jobs run back to back (analyze then disc on
    disc-tower)."""
    items = {}
    for stratum, make_jobs, args in WORKLOADS[workload]:
        for v in range(VARIANTS):
            rng = random.Random(f"pool:{POOL_SEED}:{workload}:{stratum}:{v}")
            item = f"{stratum}.{v}"
            items[item] = [
                (f"{item}.{command}", [command], payload)
                for command, payload in make_jobs(rng, *args)
            ]
    return items


def blocks(workload, seed):
    """Endless seeded sequence of blocks, each a list of item ids holding
    one variant of every stratum.  Variants are drawn without replacement
    (a fresh seeded permutation per stratum every VARIANTS blocks), so a
    run repeats no job until it has used every variant."""
    rng = random.Random(f"run:{workload}:{seed}")
    strata = [name for name, _, _ in WORKLOADS[workload]]
    while True:
        perms = {name: rng.sample(range(VARIANTS), VARIANTS) for name in strata}
        for i in range(VARIANTS):
            order = list(strata)
            rng.shuffle(order)
            yield [f"{name}.{perms[name][i]}" for name in order]
