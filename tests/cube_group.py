"""The symmetry group of I^n, as an oracle for the tests.

An element is a signed permutation (src, flip): output coordinate j
(0-based) reads source coordinate src[j], flipped when flip[j] is set, so
g(t)_j = t_{src[j]} xor flip[j].  A cube sigma acted on by g is sigma o g,
whose corner t is sigma's corner g(t).  `det` counts the cycles of src,
independently of the sign `cubes.canonical_parametrization` computes.
"""

from itertools import permutations


def signed_permutations(n):
    """All n! * 2^n elements (src, flip)."""
    return [(src, tuple((mask >> j) & 1 for j in range(n)))
            for src in permutations(range(n)) for mask in range(1 << n)]


def reflection(n, i):
    """T_i: reflect coordinate i (1-based)."""
    return tuple(range(n)), tuple(int(j == i - 1) for j in range(n))


def corner_map(src, flip):
    """The corner permutation t -> g(t), on bitmasks."""
    return [sum((((t >> s) & 1) ^ f) << j
                for j, (s, f) in enumerate(zip(src, flip)))
            for t in range(1 << len(src))]


def act(corners, src, flip):
    """sigma o g, for the cube sigma with the given corners."""
    return tuple(corners[m] for m in corner_map(src, flip))


def det(src, flip):
    """Determinant of the signed permutation matrix: -1 per even cycle of
    src and per flip."""
    cycles, seen = 0, set()
    for start in range(len(src)):
        if start not in seen:
            cycles += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = src[j]
    return (-1) ** (len(src) - cycles + sum(flip))
