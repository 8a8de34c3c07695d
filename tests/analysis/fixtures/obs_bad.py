"""OBS fixture: cross-package mutation of another layer's STATS."""

from repro.ds.kernel import STATS as KERNEL_STATS
from repro.storage.backends.base import STATS


def count_combination():
    KERNEL_STATS.bump("kernel_combinations")  # OBS001: not our counter


def hand_rolled_increment(total):
    STATS.saves += total  # OBS001: augmented assignment on storage's stats


def overwrite_field():
    KERNEL_STATS.compilations = 0  # OBS001: attribute store
