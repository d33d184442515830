"""Property test of `pencil_min_eig` on random symmetric tridiagonal pencils.

Whatever the spectrum, the eigensolver either returns the smallest
eigenvalue of (A, B), as dense `eigh` finds it, or raises
ConvergenceError: its Sturm-count certificate never lets a larger
eigenvalue through.  Mirrored pencils with a weak middle coupling give
clustered spectra, sigma_2 / sigma_1 -> 1.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from henon_lab.errors import ConvergenceError
from henon_lab.mesh import TridiagForm
from henon_lab.second_variation import eigh, pencil_min_eig

EPS = np.finfo(float).eps


@st.composite
def pencils(draw):
    size = draw(st.integers(2, 40))
    mirrored = size >= 4 and draw(st.booleans())
    half = size // 2 if mirrored else size
    values = st.floats(-100.0, 100.0, allow_nan=False)
    a_diag = draw(st.lists(values, min_size=half, max_size=half))
    a_off = draw(st.lists(values, min_size=half - 1, max_size=half - 1))
    b_off = draw(st.lists(st.floats(-1.0, 1.0), min_size=half - 1,
                          max_size=half - 1))
    b_excess = draw(st.lists(st.floats(0.01, 10.0), min_size=half,
                             max_size=half))
    if mirrored:
        # Two mirror-image halves joined by a weak link: the eigenvalues
        # pair up, split by about the coupling.
        coupling = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-4, 1e-2]))
        a_diag = a_diag + a_diag[::-1] + [a_diag[0]] * (size % 2)
        a_off = a_off + [coupling] + a_off[::-1] + [0.0] * (size % 2)
        b_off = b_off + [0.0] + b_off[::-1] + [0.0] * (size % 2)
        b_excess = b_excess + b_excess[::-1] + [1.0] * (size % 2)
    # A lift of the diagonal mixes positive and negative sigma.
    a_diag = np.array(a_diag) + draw(st.sampled_from([0.0, 100.0, 200.0]))
    a_off = np.array(a_off)
    b_off = np.array(b_off)
    # Diagonal dominance keeps B positive definite.
    bound = np.abs(np.concatenate([[0.0], b_off])) \
        + np.abs(np.concatenate([b_off, [0.0]]))
    b_diag = bound + np.array(b_excess)
    return TridiagForm(a_diag, a_off), TridiagForm(b_diag, b_off)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pencils())
def test_smallest_eigenvalue_or_typed_error(forms):
    a_form, b_form = forms
    a_dense, b_dense = a_form.to_dense(), b_form.to_dense()
    exact = eigh(a_dense, b_dense, eigvals_only=True)
    try:
        sigma, h, diagnostics = pencil_min_eig(a_form, b_form)
    except ConvergenceError:
        return
    # The certificate proves |sigma - sigma_1| <= 1e-7 max(1, |sigma|) for
    # the pencil the Sturm counts see, which is within a few rounding
    # errors of (A, B) relative to their norms.
    rounding = 64.0 * a_form.size * EPS * (
        np.linalg.norm(a_dense, 2) + abs(sigma) * np.linalg.norm(b_dense, 2)
    ) / float(np.linalg.eigvalsh(b_dense)[0])
    assert abs(sigma - exact[0]) <= 1e-7 * max(1.0, abs(sigma)) + rounding
    assert abs(float(h @ b_form.matvec(h)) - 1.0) <= 1e-10
    assert h[-1] >= 0.0
    assert diagnostics["sturm_counts"] >= 4
