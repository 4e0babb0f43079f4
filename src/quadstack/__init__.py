"""Quadruped locomotion stack.

Numerics, controllers, planners, a single-rigid-body simulator, and a CLI
for running closed-loop scenarios. Submodules:

``so3``        rotation-matrix primitives (hat/vee, exp, log, interpolation)
``estimation`` orientation filter and position/velocity Kalman filter
``terrain``    walking-surface plane fit and posture adjustment
``gait``       gait scheduling, phase weights, support polygon, footsteps
``qpsolver``   dense dual active-set (Goldfarb–Idnani) convex QP solver
``balance``    QP stance-force distribution and landing control
``swing``      3-DOF leg kinematics, jump-tracking torques and swing trajectories
``mpc``        linearized model-predictive ground-force planning
``trajopt``    contact-timing trajectory optimization over SRB dynamics
``sim``        rigid-body simulator with kinematic point feet and sensors
``cli``        scenario runner (config parsing, CSV/JSON artifacts)
"""

__version__ = "0.1.0"
