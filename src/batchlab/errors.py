"""Exception types shared across the package."""


class BatchLabError(Exception):
    """Base class for all package errors."""


class ConfigError(BatchLabError):
    """Invalid configuration: bad layer stack, bad hyperparameters, bad files."""


class NumericOverflowError(BatchLabError):
    """Non-finite values appeared during a forward pass."""

    def __init__(self, layer_index, message=None):
        self.layer_index = layer_index
        super().__init__(message or f"non-finite activations at layer {layer_index}")


class DegenerateBatchError(ConfigError):
    """Batch statistics requested on a batch too small to define them."""


class PartitionError(ConfigError):
    """Global batch not divisible by the worker count."""


class ConsistencyError(BatchLabError):
    """A worker reads a parameter store other than the one all workers share."""


class ScheduleExhaustedError(BatchLabError):
    """Learning-rate schedule queried past its final iteration."""


class DivergenceError(BatchLabError):
    """Parameters became non-finite during an update; `group` names the first."""

    def __init__(self, iteration, group):
        self.iteration = iteration
        self.group = group
        super().__init__(f"group {group} non-finite at iteration {iteration}")


class FormatError(BatchLabError):
    """Malformed binary dataset file."""
