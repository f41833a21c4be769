"""Typed property bags.

Figure 2 attaches ``Property`` records to FMCAD design objects.  Properties
are the framework's open-ended annotation mechanism (tool options, design
intent, coupling bookkeeping); the coupling layer uses them to tag
cellviews with JCF identities.  A library writes its versions' bags into
its ``.meta``, each after the record of its version.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import PropertyError

#: Property value types FMCAD supports.
_ALLOWED_TYPES = (str, int, float, bool)


class PropertyBag:
    """An ordered mapping of named, scalar-typed properties."""

    def __init__(self) -> None:
        self._props: Dict[str, Any] = {}
        #: called after every set or delete (a library marks the owning
        #: version's bag for its next ``.meta`` write)
        self.on_change: Optional[Callable[[], None]] = None

    def set(self, name: str, value: Any) -> None:
        """Set property *name*; value must be a scalar (str/int/float/bool)."""
        if not name or not isinstance(name, str):
            raise PropertyError(f"invalid property name: {name!r}")
        if not isinstance(value, _ALLOWED_TYPES):
            raise PropertyError(
                f"property {name!r}: unsupported value type "
                f"{type(value).__name__}"
            )
        self._props[name] = value
        if self.on_change is not None:
            self.on_change()

    def get(self, name: str, default: Any = None) -> Any:
        return self._props.get(name, default)

    def require(self, name: str) -> Any:
        """Return property *name*; raise if absent."""
        if name not in self._props:
            raise PropertyError(f"missing property {name!r}")
        return self._props[name]

    def delete(self, name: str) -> None:
        if name not in self._props:
            raise PropertyError(f"missing property {name!r}")
        del self._props[name]
        if self.on_change is not None:
            self.on_change()

    def __contains__(self, name: str) -> bool:
        return name in self._props

    def __len__(self) -> int:
        return len(self._props)

    def items(self) -> Iterator[Tuple[str, Any]]:
        return iter(sorted(self._props.items()))

    def as_dict(self) -> Dict[str, Any]:
        return dict(self._props)

    def copy_from(self, other: "PropertyBag") -> None:
        """Merge all properties of *other* into this bag (other wins)."""
        for name, value in other.items():
            self.set(name, value)
