"""Black-box software modules with multiple inputs and outputs.

The paper's system model (Section 3, Fig. 2) views a module as a
generalized black box: a discrete software function with *m* input
ports and *n* output ports, communicating with other modules over
signals.  The propagation analysis never looks inside a module — it
only estimates, by fault injection, the conditional probability of an
error at input *i* producing an error at output *k* (error
permeability, Eq. 1).

For the fault-injection substrate we additionally need a *memory
model* of each module, because the harsher error model of Section 7
flips bits not only in system input signals but also in each module's
RAM area (persistent state) and in the stack area (arguments and
locals of the currently executing function).  Modules therefore
declare:

* **ports** — ordered, 1-indexed input and output port names (the
  paper numbers ports; e.g. ``PACNT`` is input #1 of ``DIST_S``);
* **state cells** — named persistent variables with a bit width, which
  the injector maps into the simulated RAM area;
* **locals** — named temporaries written and read through the
  execution context during :meth:`Module.invoke`, which the injector
  maps into the simulated stack area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ModelError
from repro.model.signal import Number, SignalType, make_quantizer, quantize

__all__ = [
    "CellSpec",
    "ModuleState",
    "ExecutionContext",
    "Module",
    "FunctionModule",
]


@dataclass(frozen=True)
class CellSpec:
    """Declaration of one memory cell (a state variable or a local).

    ``width`` and ``cell_type`` define the bit-level representation used
    when the fault injector flips bits in this cell.
    """

    name: str
    width: int = 16
    cell_type: SignalType = SignalType.UINT
    initial: Number = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("cell name must be non-empty")
        if not 1 <= self.width <= 64:
            raise ModelError(
                f"cell {self.name!r}: width must be in 1..64, got {self.width}"
            )

    def quantize(self, value: Number) -> Number:
        return quantize(value, self.cell_type, self.width)


class ModuleState:
    """Persistent state of a module, stored as named, typed cells.

    Values written through :meth:`__setitem__` are quantized to the
    declared cell representation, exactly as stores to fixed-width
    variables behave on the embedded target.  The fault injector
    accesses cells through :meth:`peek` / :meth:`poke`, which do *not*
    re-derive anything — a poked value simply becomes the variable's
    value, as a bit flip in RAM would.
    """

    def __init__(self, cells: Sequence[CellSpec]):
        self._specs: Dict[str, CellSpec] = {}
        self._values: Dict[str, Number] = {}
        self._quantizers: Dict[str, object] = {}
        for spec in cells:
            if spec.name in self._specs:
                raise ModelError(f"duplicate state cell {spec.name!r}")
            self._specs[spec.name] = spec
            self._quantizers[spec.name] = make_quantizer(
                spec.cell_type, spec.width
            )
            self._values[spec.name] = spec.quantize(spec.initial)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __getitem__(self, name: str) -> Number:
        try:
            return self._values[name]
        except KeyError:
            raise ModelError(f"unknown state cell {name!r}") from None

    def __setitem__(self, name: str, value: Number) -> None:
        quantizer = self._quantizers.get(name)
        if quantizer is None:
            raise ModelError(f"unknown state cell {name!r}")
        self._values[name] = quantizer(value)

    def peek(self, name: str) -> Number:
        """Read a cell without any interpretation (injector interface)."""
        return self[name]

    def poke(self, name: str, value: Number) -> None:
        """Overwrite a cell (injector interface)."""
        self[name] = value

    def spec(self, name: str) -> CellSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise ModelError(f"unknown state cell {name!r}")
        return spec

    def specs(self) -> List[CellSpec]:
        return list(self._specs.values())

    def names(self) -> List[str]:
        return list(self._specs)

    def reset(self) -> None:
        for name, spec in self._specs.items():
            self._values[name] = spec.quantize(spec.initial)

    def snapshot(self) -> Dict[str, Number]:
        return dict(self._values)

    def restore(self, snapshot: Mapping[str, Number]) -> None:
        for name, value in snapshot.items():
            self[name] = value

    def load(self, values: Iterable[Number]) -> None:
        """Overwrite every cell, in declaration order, from *values*
        that are already quantized to their cells: unlike
        :meth:`restore`, nothing is re-quantized."""
        self._values.update(zip(self._specs, values))


class ExecutionContext:
    """Per-invocation view of a module's arguments and stack locals.

    The scheduler marshals the module's input-signal values into the
    argument cells of this context, gives the fault injector a chance
    to corrupt them (modelling bit flips in the stack area where the
    caller placed the arguments), and then hands the context to
    :meth:`Module.invoke`.  Locals written via :meth:`set_local` pass
    through the injector's local-write hook for the same reason.
    """

    __slots__ = ("_module", "_args", "_locals", "_local_hook")

    def __init__(
        self,
        module: "Module",
        args: Dict[str, Number],
        local_hook: Optional[Callable[[str, str, Number], Number]] = None,
    ):
        self._module = module
        self._args = args
        self._locals: Dict[str, Number] = {}
        self._local_hook = local_hook

    def arg(self, name: str) -> Number:
        """Read an input-port value (possibly corrupted by the injector)."""
        try:
            return self._args[name]
        except KeyError:
            raise ModelError(
                f"module {self._module.name!r} has no input {name!r}"
            ) from None

    def args(self) -> Dict[str, Number]:
        return dict(self._args)

    def set_local(self, name: str, value: Number) -> Number:
        """Write a named stack local; returns the value actually stored.

        The stored value is quantized to the declared cell width and may
        be corrupted by the injector's local-write hook — callers should
        continue computing with the *returned* value, just as the target
        code would read the variable back from its stack slot.
        """
        quantizer = self._module._local_quantizers.get(name)
        if quantizer is None:
            raise ModelError(
                f"module {self._module.name!r} declares no local {name!r}"
            )
        stored = quantizer(value)
        if self._local_hook is not None:
            stored = quantizer(
                self._local_hook(self._module.name, name, stored)
            )
        self._locals[name] = stored
        return stored

    def local(self, name: str) -> Number:
        """Read back a named stack local written earlier this invocation."""
        if name not in self._module._local_spec_map:
            raise ModelError(
                f"module {self._module.name!r} declares no local {name!r}"
            )
        if name not in self._locals:
            raise ModelError(
                f"local {name!r} read before first write in module "
                f"{self._module.name!r}"
            )
        return self._locals[name]


class Module:
    """Abstract black-box module.

    Subclasses define the port lists, the persistent state cells, the
    stack locals, and the transfer behaviour in :meth:`invoke`.
    """

    #: Ordered input port names; index 0 is the paper's input #1.
    INPUTS: Sequence[str] = ()
    #: Ordered output port names; index 0 is the paper's output #1.
    OUTPUTS: Sequence[str] = ()
    #: Persistent state cells mapped into the RAM area.
    STATE: Sequence[CellSpec] = ()
    #: Stack locals mapped into the stack area.
    LOCALS: Sequence[CellSpec] = ()

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        if not self.OUTPUTS:
            raise ModelError(f"module {self.name!r} must have at least one output")
        if len(set(self.INPUTS)) != len(self.INPUTS):
            raise ModelError(f"module {self.name!r} has duplicate input ports")
        if len(set(self.OUTPUTS)) != len(self.OUTPUTS):
            raise ModelError(f"module {self.name!r} has duplicate output ports")
        self.state = ModuleState(self.STATE)
        self._local_spec_map = {spec.name: spec for spec in self.LOCALS}
        self._local_quantizers = {
            spec.name: make_quantizer(spec.cell_type, spec.width)
            for spec in self.LOCALS
        }

    # ------------------------------------------------------------------
    # Port access, 1-indexed as in the paper's tables.
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> List[str]:
        return list(self.INPUTS)

    @property
    def outputs(self) -> List[str]:
        return list(self.OUTPUTS)

    @property
    def local_specs(self) -> List[CellSpec]:
        return list(self.LOCALS)

    def input_index(self, port: str) -> int:
        """1-based index of input *port* (the ``i`` in ``P_{i,k}``)."""
        try:
            return list(self.INPUTS).index(port) + 1
        except ValueError:
            raise ModelError(
                f"module {self.name!r} has no input port {port!r}"
            ) from None

    def output_index(self, port: str) -> int:
        """1-based index of output *port* (the ``k`` in ``P_{i,k}``)."""
        try:
            return list(self.OUTPUTS).index(port) + 1
        except ValueError:
            raise ModelError(
                f"module {self.name!r} has no output port {port!r}"
            ) from None

    def input_name(self, index: int) -> str:
        """Input port name for 1-based *index*."""
        if not 1 <= index <= len(self.INPUTS):
            raise ModelError(
                f"module {self.name!r} has no input #{index} "
                f"(has {len(self.INPUTS)})"
            )
        return list(self.INPUTS)[index - 1]

    def output_name(self, index: int) -> str:
        """Output port name for 1-based *index*."""
        if not 1 <= index <= len(self.OUTPUTS):
            raise ModelError(
                f"module {self.name!r} has no output #{index} "
                f"(has {len(self.OUTPUTS)})"
            )
        return list(self.OUTPUTS)[index - 1]

    # ------------------------------------------------------------------
    # Behaviour.
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return the module to its power-on state."""
        self.state.reset()

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        """Execute one invocation; return a value per output port."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} "
            f"in={list(self.INPUTS)} out={list(self.OUTPUTS)}>"
        )


class FunctionModule(Module):
    """A module defined by a plain function over its input dict.

    Convenient for building small synthetic systems in examples and
    tests without subclassing::

        double = FunctionModule(
            "DOUBLE", inputs=["x"], outputs=["y"],
            fn=lambda args, state: {"y": 2 * args["x"]},
        )

    The function receives ``(args, state)`` and must return a dict with
    a value per output port.  Optional ``state_cells`` become the
    module's RAM cells.
    """

    def __init__(
        self,
        name: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
        fn: Callable[[Dict[str, Number], ModuleState], Dict[str, Number]],
        state_cells: Sequence[CellSpec] = (),
        locals_: Sequence[CellSpec] = (),
    ):
        self.INPUTS = tuple(inputs)
        self.OUTPUTS = tuple(outputs)
        self.STATE = tuple(state_cells)
        self.LOCALS = tuple(locals_)
        self._fn = fn
        super().__init__(name)

    def invoke(self, ctx: ExecutionContext) -> Dict[str, Number]:
        result = self._fn(ctx.args(), self.state)
        missing = set(self.OUTPUTS) - set(result)
        if missing:
            raise ModelError(
                f"module {self.name!r} function did not produce outputs "
                f"{sorted(missing)}"
            )
        return {port: result[port] for port in self.OUTPUTS}
