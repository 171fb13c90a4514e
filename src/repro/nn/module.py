"""Module/Parameter system: a minimal ``torch.nn.Module`` equivalent.

Modules register :class:`Parameter` attributes and child modules
automatically via ``__setattr__``; ``parameters()`` walks the tree, and
``state_dict()`` / ``load_state_dict()`` give flat name->array views used
by :mod:`repro.nn.serialization`.  Non-learned state that must survive a
checkpoint round-trip (batch/graph-norm running statistics) is declared
with :meth:`Module.register_buffer` and travels with the state dict.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .tensor import Tensor


class Parameter(Tensor):
    """A tensor that is updated by an optimizer (always requires grad)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for all neural network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Declare non-learned persistent state (e.g. running statistics).

        Buffers are plain numpy arrays: forward passes may reassign the
        attribute freely (``self.running_mean = ...``); the registry only
        records the *name*, so the current value is always what
        ``state_dict()`` captures.
        """
        self._buffers[name] = True
        object.__setattr__(self, name, np.asarray(value, dtype=np.float64))

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, owner, attr in self._buffer_owners(prefix):
            yield name, getattr(owner, attr)

    def _buffer_owners(self, prefix: str = "") -> Iterator[Tuple[str, "Module", str]]:
        for name in self._buffers:
            yield prefix + name, self, name
        for name, module in self._modules.items():
            yield from module._buffer_owners(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters (paper Fig. 6 reports these)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Train / eval switches
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy() for name, param in self.named_parameters()}
        state.update({name: np.asarray(value).copy() for name, value in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True,
                        copy: bool = True) -> None:
        """Install ``state`` into the module's parameters and buffers.

        With ``copy=False`` the incoming arrays are adopted as-is (views,
        not copies) whenever dtype already matches — the zero-copy path
        used for memory-mapped artifacts.  Adopted views may be
        write-protected; that is deliberate: an eval-only model never
        writes its weights, and an accidental in-place update raises
        instead of silently corrupting shared state.
        """
        own_params = dict(self.named_parameters())
        own_buffers = {name: (owner, attr) for name, owner, attr in self._buffer_owners()}
        own_names = set(own_params) | set(own_buffers)
        # Missing *buffers* are tolerated even under strict loading: older
        # checkpoints predate buffer serialization, and an absent buffer
        # simply keeps its initialized value.  Parameters stay strict.
        missing = set(own_params) - set(state)
        unexpected = set(state) - own_names
        if strict and (missing or unexpected):
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own_params.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: saved {value.shape}, model {param.data.shape}"
                )
            param.data = value.copy() if copy else value
        for name, (owner, attr) in own_buffers.items():
            if name not in state:
                continue
            current = np.asarray(getattr(owner, attr))
            value = np.asarray(state[name], dtype=current.dtype)
            if value.shape != current.shape:
                raise ValueError(
                    f"shape mismatch for buffer {name}: saved {value.shape}, model {current.shape}"
                )
            object.__setattr__(owner, attr, value.copy() if copy else value)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    """An indexable container of sub-modules."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Sequential(Module):
    """Apply modules one after another."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            self._modules[str(len(self._items))] = module
            self._items.append(module)

    def forward(self, x):
        for module in self._items:
            x = module(x)
        return x
