import types

from softtopo import kernels

PUBLIC = {
    name
    for name, fn in vars(kernels).items()
    if not name.startswith("_") and isinstance(fn, types.FunctionType)
}


def _names(code: types.CodeType) -> set[str]:
    """Global and attribute names a function reads, nested closures included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_public_kernels_never_call_public_kernels():
    # perfbench's tracer wraps each public kernel and rebinds every name bound
    # to it, so a public-to-public call would be recorded once per lattice mask
    assert {"interior_mask", "closure_mask", "min_cover"} <= PUBLIC
    for name in sorted(PUBLIC):
        calls = _names(getattr(kernels, name).__code__) & PUBLIC
        assert not calls, f"kernels.{name} calls public kernels {sorted(calls)}"
