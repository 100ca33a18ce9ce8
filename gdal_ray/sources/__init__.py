"""Vector and raster readers."""


def pick_layer(layers: dict, path, layer: str | None = None,
               prefer: tuple = ()):
    """One table of a reader's ``{name: table}`` dict: ``layer`` when
    given, else the first name of ``prefer`` present, else the first
    layer. No layers, or an unknown name, raises ValueError naming
    ``path``."""
    if not layers:
        raise ValueError(f"{path}: no layers")
    if layer is None:
        layer = next((k for k in prefer if k in layers), next(iter(layers)))
    if layer not in layers:
        raise ValueError(f"{path}: no layer {layer!r} "
                         f"(have {sorted(layers)})")
    return layers[layer]
