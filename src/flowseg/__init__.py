"""Displacement-field clustering for pixel-grid instance segmentation.

The top level exports the pipeline, the metrics, the layer entry points, the
checks and file I/O; everything else is imported from its module.

scipy is imported only inside the two functions that call it
(``grid.stencil_sum`` and ``diffusion._same_label_operator``), so importing the
package loads none of it.
"""

from .checks import isomorphism_probe, jacobian_check, random_check_point
from .cluster import build_tg, contract, gcm
from .diffusion import gt_displacement
from .fileio import ParseError, read_field, read_map, write_field, write_map
from .getconv import getblock_forward, getconv_forward, getconv_forward_jvp, random_layer_params
from .grid import GridShape, disk, grid_adjacency, square
from .metrics import evaluate, obj_dice, obj_f1, obj_hd
from .synth import synth
