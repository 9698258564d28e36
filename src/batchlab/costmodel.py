"""Analytical scaling arithmetic for synchronous data-parallel training.

Iteration counts, tree all-reduce message counts, communication volume,
alpha-beta-gamma time estimates, and energy estimates, with built-in model
and network presets.
"""

import math
import warnings
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class ModelProfile:
    name: str
    num_params: int  # model size |W|, words
    flops_per_image: float  # forward+backward single-precision ops per example

    def __post_init__(self):
        if self.num_params <= 0 or self.flops_per_image <= 0:
            raise ConfigError("model profile fields must be positive")


@dataclass(frozen=True)
class ClusterSpec:
    workers: int
    alpha: float  # per-message latency, seconds
    beta: float  # seconds per word (1/bandwidth)
    gamma: float  # seconds per flop

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigError("need at least one worker")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("need alpha, beta >= 0")
        if not 0 < self.gamma < math.inf:
            raise ConfigError(f"need gamma > 0 seconds per flop, got {self.gamma!r}")


@dataclass
class CostReport:
    iterations: int
    messages: int
    comm_volume_words: int
    t_comp_per_iter: float
    t_comm_per_iter: float
    t_iter: float
    total_time: float
    total_flops: float
    energy_joules: float


def iterations(epochs, n, batch_size):
    """Fixed-epoch iteration count floor(E * n / B)."""
    if epochs <= 0 or n <= 0 or batch_size <= 0:
        raise ConfigError("epochs, n, batch_size must be positive")
    count = (epochs * n) // batch_size
    if count == 0:
        warnings.warn(f"batch size {batch_size} exceeds the epoch budget; zero iterations")
    return count


def comm_volume(profile, epochs, n, batch_size):
    """All-reduce payload over the whole run: |W| words per iteration."""
    return profile.num_params * iterations(epochs, n, batch_size)


def _stages(workers):
    return math.ceil(math.log2(workers)) if workers > 1 else 0


def iteration_time(profile, spec, batch_size):
    """(t_comp, t_comm, t_iter) for one iteration.

    t_comp = flops/image * (B/P) * gamma.  One tree stage moves the whole
    gradient, t_comm = alpha + beta * |W|, and the iteration pays
    ceil(log2 P) stages: the depth of the pairwise tree the simulator's
    all-reduce runs.
    """
    if batch_size % spec.workers != 0:
        raise ConfigError(f"batch {batch_size} not divisible by P={spec.workers}")
    local = batch_size // spec.workers
    t_comp = profile.flops_per_image * local * spec.gamma
    t_comm = spec.alpha + spec.beta * profile.num_params
    t_iter = t_comp + _stages(spec.workers) * t_comm
    return t_comp, t_comm, t_iter


def total_flops(profile, epochs, n):
    """E * n * flops/image; independent of batch size and worker count."""
    return epochs * n * profile.flops_per_image


def total_time(profile, spec, epochs, n, batch_size):
    """Full-run CostReport; total_time == iterations * t_iter exactly.

    Energy prices computation as a 50/50 float add/multiply mix and each
    communicated 32-bit word as one DRAM access.
    """
    iters = iterations(epochs, n, batch_size)
    t_comp, t_comm, t_iter = iteration_time(profile, spec, batch_size)
    volume = profile.num_params * iters  # comm_volume's, which would count (and warn) again
    flops = total_flops(profile, epochs, n)
    pj_per_flop = 0.5 * (_ENERGY_PJ["32 bit float add"] + _ENERGY_PJ["32 bit float multiply"])
    energy_joules = (flops * pj_per_flop + volume * _ENERGY_PJ["32 bit DRAM access"]) * 1e-12
    return CostReport(
        iterations=iters,
        messages=iters * _stages(spec.workers),
        comm_volume_words=volume,
        t_comp_per_iter=t_comp,
        t_comm_per_iter=t_comm,
        t_iter=t_iter,
        total_time=iters * t_iter,
        total_flops=flops,
        energy_joules=energy_joules,
    )


def whole_machine_time(profile, epochs, n, flops_per_second):
    """Ideal time assuming the full machine rate is sustained."""
    if flops_per_second <= 0:
        raise ConfigError("machine rate must be positive")
    return total_flops(profile, epochs, n) / flops_per_second


def scaling_ratio(profile):
    """Computation/communication ratio: flops per image over model size."""
    return profile.flops_per_image / profile.num_params


# ---------------------------------------------------------------------------
# presets (published hardware and model constants)
# ---------------------------------------------------------------------------

# ResNet-50 per-image flop count used for whole-run arithmetic; the model
# preset below keeps the coarser published profile figure.
RESNET50_FLOPS_PER_IMAGE = 7.72e9
IMAGENET_TRAIN_SIZE = 1_280_000
TOP_SUPERCOMPUTER_FLOPS = 2e17
P100_GAMMA = 0.9e-13

_MODEL_PRESETS = {
    "alexnet": ModelProfile("alexnet", 61_000_000, 1.5e9),
    "resnet50": ModelProfile("resnet50", 25_000_000, 7.7e9),
}

_NETWORK_PRESETS = {
    # name -> (alpha seconds, beta seconds/word)
    "mellanox_fdr": (0.7e-6, 0.2e-9),
    "intel_qdr": (1.2e-6, 0.3e-9),
    "intel_10gbe": (7.2e-6, 0.9e-9),
}

_ENERGY_PJ = {
    "32 bit int add": 0.1,
    "32 bit float add": 0.9,
    "32 bit register access": 1.0,
    "32 bit int multiply": 3.1,
    "32 bit float multiply": 3.7,
    "32 bit SRAM access": 5.0,
    "32 bit DRAM access": 640.0,
}


def model_preset(name):
    try:
        return _MODEL_PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown model preset {name!r}; have {sorted(_MODEL_PRESETS)}")


def cluster_preset(name, workers=1, gamma=P100_GAMMA):
    try:
        alpha, beta = _NETWORK_PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown network preset {name!r}; have {sorted(_NETWORK_PRESETS)}")
    return ClusterSpec(workers=workers, alpha=alpha, beta=beta, gamma=gamma)


def energy_table():
    return dict(_ENERGY_PJ)


def model_preset_names():
    return sorted(_MODEL_PRESETS)


def cluster_preset_names():
    return sorted(_NETWORK_PRESETS)
