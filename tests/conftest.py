"""Shared fixtures: a seeded random source for randomized diagram tests and
a number too long to read as an int."""

import random
import sys

import pytest


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def long_number() -> str:
    """5,000 nines: past Python's default limit of 4,300 digits on
    int-string conversion."""
    if not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000:
        pytest.skip("this interpreter reads 5,000 digits as an int")
    return "9" * 5000
