"""Independent literal-formula oracles used to derive expected test values.

Everything here is written with plain ``math`` and explicit loops, on purpose:
these functions re-derive expected values straight from the defining formulas
and must share no code with the package they check.
"""

import math
from fractions import Fraction


def dist(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def centroid(points):
    n = len(points)
    return tuple(sum(p[i] for p in points) / n for i in range(len(points[0])))


def centroid_radius(points):
    g = centroid(points)
    return sum(dist(p, g) for p in points) / len(points)


def centroid_radius_exact(points):
    """Mean member-to-centroid distance from an exact Fraction centroid and
    exact squared offsets: the only roundings are the square root of each
    member's squared offset, the correctly rounded sum of the distances and
    the division by the count."""
    exact = [[Fraction(x) for x in p] for p in points]
    n = len(exact)
    centre = [sum(column) / n for column in zip(*exact)]
    return math.fsum(_sqrt(sum((x - c) ** 2 for x, c in zip(p, centre))) for p in exact) / n


def _sqrt(square):
    """math.sqrt of the Fraction ``square`` taken at a scale of 4^k near 1, so
    a square far below the smallest float does not round to 0 first."""
    k = (square.denominator.bit_length() - square.numerator.bit_length()) // 2 if square else 0
    return math.ldexp(math.sqrt(square * Fraction(4) ** k), -k)


def mean_pairwise(points):
    n = len(points)
    if n < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += dist(points[i], points[j])
            pairs += 1
    return total / pairs


def diameter(points):
    """Largest pairwise distance; 0 for a singleton."""
    largest = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            largest = max(largest, dist(points[i], points[j]))
    return largest


def _grouped(points, labels):
    k = max(labels) + 1
    return [[p for p, l in zip(points, labels) if l == lab] for lab in range(k)]


def si_product_form(points, labels, radius_fn):
    """k * (prod size**(radius/whole_radius)) ** (1/k), zero exponents when the
    whole-set radius is zero."""
    clusters = _grouped(points, labels)
    k = len(clusters)
    whole = radius_fn(points)
    product = 1.0
    for members in clusters:
        exponent = 0.0 if whole == 0.0 else radius_fn(members) / whole
        product *= len(members) ** exponent
    return k * product ** (1.0 / k)


def si_centroid_oracle(points, labels):
    return si_product_form(points, labels, centroid_radius)


def si_distance_oracle(points, labels):
    return si_product_form(points, labels, mean_pairwise)


def si_hierarchical_oracle(samples):
    """Trapezoid sum over (distance, value) samples divided by
    (N - 1) * (last distance - first distance)."""
    d = [s[0] for s in samples]
    v = [s[1] for s in samples]
    n = len(samples)
    numerator = sum((v[i] + v[i - 1]) * (d[i] - d[i - 1]) / 2.0 for i in range(1, n))
    return numerator / ((n - 1) * (d[-1] - d[0]))


def single_linkage_merges(points, matrix=None):
    """Closest-pair scan: ``(left, right, distance)`` rows of single linkage.

    Point pairs are ordered by ``(distance, smaller id, larger id)``, so no
    two tie, and a cluster pair's link is the least of its point pairs. Every
    step merges the pair of active clusters with the least link. Ids follow
    the linkage-matrix convention: points are 0 .. n-1 and step ``s`` creates
    cluster ``n + s``. The point distances come from :func:`dist`, or from
    the N x N ``matrix`` when given. O(n^3), for small inputs only.
    """
    n = len(points)
    link = {}
    for i in range(n):
        for j in range(i + 1, n):
            link[(i, j)] = (dist(points[i], points[j]) if matrix is None else matrix[i][j], i, j)
    active = list(range(n))  # sorted: a new id is always the largest
    merges = []
    for step in range(n - 1):
        best = None
        for x in range(len(active)):
            for y in range(x + 1, len(active)):
                pair = (active[x], active[y])
                if best is None or link[pair] < link[best]:
                    best = pair
        left, right = best
        new_id = n + step
        rest = [c for c in active if c != left and c != right]
        for c in rest:
            link[(c, new_id)] = min(link[(min(c, left), max(c, left))], link[(min(c, right), max(c, right))])
        merges.append((left, right, link[best][0]))
        active = rest + [new_id]
    return merges


def spanning_tree_lengths(matrix):
    """Sorted edge lengths of a minimum spanning tree of the complete graph
    whose N x N edge weights are ``matrix``: plain Prim from point 0, one key
    per point outside the tree. Every minimum spanning tree has the same
    sorted lengths, whichever tied edge each step takes."""
    n = len(matrix)
    inside = [False] * n
    key = [math.inf] * n
    lengths = []
    current = 0
    for _ in range(n - 1):
        inside[current] = True
        for j in range(n):
            if not inside[j] and matrix[current][j] < key[j]:
                key[j] = matrix[current][j]
        current = min((j for j in range(n) if not inside[j]), key=lambda j: key[j])
        lengths.append(key[current])
    return sorted(lengths)


def partition_at(n, merges, level):
    """Labels after the first ``level - 1`` of the ``(left, right)`` id pairs
    ``merges`` over ``n`` points, numbered in the order of each cluster's
    smallest point: the applied merges walked from the last, each id's root
    its parent's."""
    root = list(range(n + level - 1))
    for node in range(n + level - 2, n - 1, -1):
        left, right = merges[node - n]
        root[left] = root[right] = root[node]
    label_of = {}
    return [label_of.setdefault(r, len(label_of)) for r in root[:n]]


def merge_fault(n, merges, distances):
    """The message a Dendrogram over ``n`` points raises for float id pairs
    ``merges`` and float ``distances``, or None when they are valid: each
    row checked in turn, its left id, then its right id, then the pair, the
    distance and the step from the previous distance."""
    merged = bytearray(2 * n - 1)
    previous = 0.0
    for row, (pair, distance) in enumerate(zip(merges, distances), start=1):
        limit = n + row - 1
        for cid in pair:
            if not cid.is_integer():
                return f"merge row {row}: cluster id {cid!r} is not an integer"
            if not 0 <= cid < limit:
                return f"merge row {row}: cluster id {int(cid)} out of range 0..{limit - 1}"
            if merged[int(cid)]:
                return f"merge row {row}: cluster id {int(cid)} already merged"
        left, right = int(pair[0]), int(pair[1])
        if left == right:
            return f"merge row {row}: cannot merge cluster {left} with itself"
        if not math.isfinite(distance) or distance < 0:
            return f"merge row {row}: distance must be finite and nonnegative, got {distance}"
        if distance < previous:
            return f"merge row {row}: distance {distance} decreases below previous {previous}"
        merged[left] = merged[right] = 1
        previous = distance
    return None
