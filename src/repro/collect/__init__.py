"""The paper's data-collection system: driver, daemon, profile database."""

from repro.collect.daemon import Daemon
from repro.collect.database import ImageProfile, ProfileDatabase
from repro.collect.driver import Driver
from repro.collect.parallel import (MergedProfiles, ParallelSessionRunner,
                                    ShardSpec, merge_profiles)
from repro.collect.session import ProfileSession, SessionConfig

__all__ = [
    "ImageProfile",
    "ProfileDatabase",
    "Driver",
    "Daemon",
    "MergedProfiles",
    "ParallelSessionRunner",
    "ShardSpec",
    "merge_profiles",
    "ProfileSession",
    "SessionConfig",
]
