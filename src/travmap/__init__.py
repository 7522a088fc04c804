"""travmap: deterministic traversability mapping from watching humans walk.

A simulated monocular robot observes an indoor scene.  Static structure
(feature landmarks), human trails, and the occlusion ordering between humans
and landmarks each produce re-anchorable traversability evidence; an SE(2)
pose graph supplies the anchors, and the journey-based quality metric scores
every module combination against a C-space ground truth.
"""
