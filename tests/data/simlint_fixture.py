"""Determinism fixture: bad and good examples for RPR001..RPR006.

Never imported or executed — ``tests/test_simlint.py`` checks it as a
module of a throwaway package tree and asserts that every line tagged
``# expect: RPRxxx`` produces exactly that finding and that untagged lines
produce none.
"""

import random
import time
from datetime import datetime

import numpy as np


# -- RPR001: iteration over a set/frozenset ---------------------------------

def bad_set_iteration():
    total = 0
    for item in {3, 1, 2}:  # expect: RPR001
        total += item
    squares = [x * x for x in frozenset((1, 2))]  # expect: RPR001
    pool = {1, 2, 3}
    for item in pool:  # expect: RPR001
        total += item
    materialized = list(set([1, 2]))  # expect: RPR001
    return total, squares, materialized


def bad_set_algebra(left: set, right: set):
    return [x for x in left | right]  # expect: RPR001


def good_ordered_iteration():
    total = 0
    for item in [3, 1, 2]:
        total += item
    pool = [1, 2, 3]
    for item in pool:
        total += item
    shadowed = {1, 2}
    shadowed = [1, 2]
    for item in shadowed:  # reassigned to a list above: no finding
        total += item
    return total


# -- RPR002: sorted() on a set without a key --------------------------------

def bad_sorted_set():
    return sorted({3, 1, 2})  # expect: RPR002


def good_sorted():
    with_key = sorted({3, 1, 2}, key=abs)
    a_list = sorted([3, 1, 2])
    return with_key, a_list


# -- RPR003: unseeded or global RNG -----------------------------------------

def bad_rng():
    a = random.random()  # expect: RPR003
    b = np.random.shuffle([1, 2, 3])  # expect: RPR003
    rng = np.random.default_rng()  # expect: RPR003
    return a, b, rng


def good_rng(seed: int):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10)


# -- RPR004: wall-clock reads -----------------------------------------------

def bad_wall_clock():
    t = time.time()  # expect: RPR004
    d = datetime.now()  # expect: RPR004
    return t, d


def good_clock(now: int):
    elapsed = time.perf_counter()  # observability timer, not model time
    return now + 1, elapsed


# -- RPR005: id()/hash() in model code --------------------------------------

def bad_identity(warp):
    return id(warp)  # expect: RPR005


def good_identity(warp):
    return warp.warp_id


# -- RPR006: mutable default arguments --------------------------------------

def bad_mutable_default(counts=[]):  # expect: RPR006
    counts.append(1)
    return counts


def bad_factory_default(table=dict()):  # expect: RPR006
    return table


def good_default(counts=None):
    if counts is None:
        counts = []
    counts.append(1)
    return counts

