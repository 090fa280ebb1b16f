"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Grids, stencils, or scheme parameters are mutually inconsistent."""


class BlowUpError(ArithmeticError):
    """The explicit scheme produced a non-finite node value.

    Attributes
    ----------
    node : tuple
        Index vector of the first offending node (lexicographic scan order).
    step : int or None
        Time level at which the overflow appeared, when known.
    """

    def __init__(self, node, step=None):
        self.node = tuple(node)
        self.step = step
        where = f"node {self.node}"
        if step is not None:
            where = f"step {step}, {where}"
        super().__init__(
            f"scheme blew up at {where}; the time step likely violates the "
            "CFL restriction"
        )

