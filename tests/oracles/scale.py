"""The one rule for reading a handed-out product as ``M^{-1} K``.

A matrix-free operator's :meth:`restrict` and :meth:`masked_subset`
products are raw on the fused tier (``K u``: its LTS phases scale them)
and scaled on the NumPy tier; the operator's ``row_scale`` says which.
"""


def as_scaled(op, z):
    """``z``, the output of a product ``op`` handed out, as the ``M^{-1}
    K`` product: times ``op.row_scale`` where ``op`` leaves the scale to
    its caller (an assembled operator has none)."""
    scale = getattr(op, "row_scale", None)
    return z if scale is None else z * scale
