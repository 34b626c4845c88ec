"""Pure-Python integration kernel for the Blasius family.

Fallback twin of the compiled module nitm._kernels. The two must stay
operation-for-operation identical (same evaluation order, no fused
multiply-add on the compiled side) so that trajectories do not depend
on which backend was imported. walk_member, the per-member walk of the
pure walk_blasius_family, also runs every single solve on either
backend, with that backend's fill; only a single solve keeps its
buffers.
"""

import math
from array import array

BLOWUP_LIMIT = 1e12

# how a member of walk_blasius_family ends
ACCEPTED, BLOWUP, BREAKDOWN, NO_AGREEMENT = range(4)


def fill_blasius_family(beta, f, fp, fpp, h, start, stop):
    """Advance f''' = -beta*f*f'' from node start through node stop.

    The arrays hold one value per grid node; node start must be filled
    on entry and nodes start+1 .. stop are written. Returns -1 on
    success, or the index of the first node whose state left
    [-BLOWUP_LIMIT, BLOWUP_LIMIT] (NaN counts as outside; nothing is
    written at or past that node).
    """
    mb = -beta
    h2 = 0.5 * h
    h6 = h / 6.0
    cf = float(f[start])
    cp = float(fp[start])
    cq = float(fpp[start])
    for i in range(start, stop):
        k1f = cp
        k1p = cq
        k1q = mb * cf * cq
        tf = cf + h2 * k1f
        tp = cp + h2 * k1p
        tq = cq + h2 * k1q
        k2f = tp
        k2p = tq
        k2q = mb * tf * tq
        tf = cf + h2 * k2f
        tp = cp + h2 * k2p
        tq = cq + h2 * k2q
        k3f = tp
        k3p = tq
        k3q = mb * tf * tq
        tf = cf + h * k3f
        tp = cp + h * k3p
        tq = cq + h * k3q
        k4f = tp
        k4p = tq
        k4q = mb * tf * tq
        cf = cf + h6 * (k1f + 2.0 * (k2f + k3f) + k4f)
        cp = cp + h6 * (k1p + 2.0 * (k2p + k3p) + k4p)
        cq = cq + h6 * (k1q + 2.0 * (k2q + k3q) + k4q)
        if not (abs(cf) <= BLOWUP_LIMIT and abs(cp) <= BLOWUP_LIMIT
                and abs(cq) <= BLOWUP_LIMIT):
            return i + 1
        f[i + 1] = cf
        fp[i + 1] = cp
        fpp[i + 1] = cq
    return -1


def walk_blasius_family(beta, h, stops, seeds, offsets, lambda_tol):
    """Walk each seed through the stop indices, with Topfer's test at each stop.

    Member m starts from seeds[m] at node 0 and advances through the
    strictly increasing node indices stops. At each stop its lambda is
    sqrt(fp[stop] + offsets[m]); it is retired at the first of: a
    blow-up (BLOWUP, at the node fill_blasius_family reports), a
    non-positive or non-finite fp[stop] + offsets[m] (BREAKDOWN), two
    successive lambdas within lambda_tol, or its first stop when there
    is only one (ACCEPTED), and the last stop (NO_AGREEMENT).

    Returns one (outcome, lambdas, fp_stop, bad) per member and keeps no
    node: lambdas holds the lambda of each stop that passed that test,
    so a breakdown's last stop has none; fp_stop is fp at the last stop
    walked (None if the member blew up before its first stop); bad is
    the blow-up node (-1 if none). The compiled twin checks its
    arguments and steps the state of up to 32 members side by side, in
    whole vectors, testing each for a blow-up once per block and
    stepping a member that blew up again alone, node by node; this one
    walks the members in turn, as the bits do not depend on the order,
    and drops each one's buffers as soon as it has them.
    """
    return [walk_member(fill_blasius_family, beta, h, stops, seed, offset,
                        lambda_tol)[:4]
            for seed, offset in zip(seeds, offsets)]


def walk_member(fill, beta, h, stops, seed, offset, lambda_tol):
    """One member's row of walk_blasius_family, then its f, fp and fpp,
    with fill doing the steps.

    Each lambda is sqrt(fp[stop] + offset), the operations of
    scaling.lambda_moving_wall (offset b*) and of lambda_from_asymptote
    (offset 0, as fp + 0.0 is fp wherever the test passes), so the
    caller takes them as they are. f, fp and fpp are array('d') buffers
    grown to stop + 1 nodes at each stop, so they never hold a node past
    the accepted stop; they are None for a member that failed.
    """
    f, fp, fpp = (array("d", (x,)) for x in seed)
    lambdas = []
    fp_stop = None
    start = 0
    for stop in stops:
        zeros = bytes(8 * (stop - start))
        f.frombytes(zeros)
        fp.frombytes(zeros)
        fpp.frombytes(zeros)
        bad = fill(beta, f, fp, fpp, h, start, stop)
        if bad >= 0:
            return BLOWUP, tuple(lambdas), fp_stop, bad, None, None, None
        fp_stop = fp[stop]
        base = fp_stop + offset
        if not (base > 0.0) or not math.isfinite(base):
            return BREAKDOWN, tuple(lambdas), fp_stop, -1, None, None, None
        lambdas.append(math.sqrt(base))
        if len(stops) == 1 or (len(lambdas) > 1
                               and abs(lambdas[-1] - lambdas[-2]) <= lambda_tol):
            return ACCEPTED, tuple(lambdas), fp_stop, -1, f, fp, fpp
        start = stop
    return NO_AGREEMENT, tuple(lambdas), fp_stop, -1, None, None, None
