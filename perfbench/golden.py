"""Pinned expected outputs that every benchmark run checks against.

The verify values are (status, oracle value, formula value) per nu; the
table rows are (mu, best edges, exhaustive, witness graph6). The witness
strings are the same for serial, parallel and resumed runs, so checking
each run against them also checks the three against one another. The
construct values are the edge counts of the extremal graphs, one list per
d over nu = 2, 3, ....
"""

VERIFY = {
    # (d, n_max) -> expected outputs
    (6, 8): {
        "verdicts": {
            2: ["confirmed", 5, 5],
            3: ["confirmed", 10, 10],
            4: ["confirmed", 15, 15],
            5: ["inconclusive", 20, 21],
            6: ["inconclusive", 25, 26],
            7: ["inconclusive", 30, 31],
            8: ["inconclusive", 35, 37],
            9: ["inconclusive", 40, 42],
            10: ["inconclusive", 45, 47],
            11: ["inconclusive", 50, 52],
            12: ["inconclusive", 55, 58],
            13: ["inconclusive", 60, 63],
        },
        "table": [
            [1, 5, True, "Esa?"],
            [2, 10, True, "FsaBw"],
            [3, 15, True, "Fqn^o"],
            [4, 18, False, "GqhvnW"],
        ],
    },
    # the self-test size: the smallest n_max whose run still shards roots
    # across the pool and writes a checkpoint (the shard order is 6)
    (6, 7): {
        "verdicts": {
            2: ["confirmed", 5, 5],
            3: ["confirmed", 10, 10],
            4: ["confirmed", 15, 15],
            5: ["inconclusive", 20, 21],
        },
        "table": [
            [1, 5, True, "Esa?"],
            [2, 10, True, "FsaBw"],
            [3, 15, True, "Fqn^o"],
        ],
    },
}

# Connected planar graphs with maximum degree <= 5, per order n = 1, 2, ...
CENSUS_D6 = [1, 1, 2, 6, 20, 99, 566, 4323]

# Order 8: candidate extensions -> accepted -> distinct -> planar.
FUNNEL_D6_N8 = [50957, 9251, 6125, 4323]

CONSTRUCT_EDGES = {
    2: list(range(1, 40)),
    3: list(range(3, 118, 3)),
    4: [3, 7, 10, 14, 17, 21, 24, 28, 31, 35, 38, 42, 45, 49, 52, 56, 59, 63,
        66, 70, 73, 77, 80, 84, 87, 91, 94, 98, 101, 105, 108, 112, 115, 119,
        122, 126, 129, 133, 136],
    5: [4, 9, 13, 18, 22, 27, 31, 36, 40, 45, 49, 54, 58, 63, 67, 72, 76, 81,
        85, 90, 94, 99, 103, 108, 112, 117, 121, 126, 130, 135, 139, 144, 148,
        153, 157, 162, 166, 171, 175],
    6: [5, 10, 15, 21, 26, 31, 37, 42, 47, 52, 58, 63, 68, 74, 79, 84, 89, 95,
        100, 105, 111, 116, 121, 126, 132, 137, 142, 148, 153, 158, 163, 169,
        174, 179, 185, 190, 195, 200, 206],
    7: list(range(6, 235, 6)),
    8: list(range(7, 274, 7)),
    9: list(range(8, 313, 8)),
    10: list(range(9, 352, 9)),
}
