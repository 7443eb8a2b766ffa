"""Displacement-field clustering for pixel-grid instance segmentation.

The top level exports the pipeline, the metrics, the layer entry points, the
checks and file I/O; everything else is imported from its module.

Of scipy, the package uses only the compiled CSR kernels of
``scipy.sparse._sparsetools``. ``grid._csr_kernels`` loads that one extension
file on the first kernel call (``grid.stencil_sum`` or
``diffusion.gt_displacement``), without running scipy's or scipy.sparse's
``__init__``, so importing the package loads nothing from scipy.
"""

from .checks import isomorphism_probe, jacobian_check, random_check_point
from .cluster import build_tg, contract, gcm
from .diffusion import gt_displacement
from .fileio import ParseError, read_field, read_map, write_field, write_map
from .getconv import getblock_forward, getconv_forward, getconv_forward_jvp, random_layer_params
from .grid import GridShape, disk, grid_adjacency, square
from .metrics import evaluate, obj_dice, obj_f1, obj_hd
from .synth import synth
