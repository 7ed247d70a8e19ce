"""Fixed physical constants (CODATA 2018). Never configurable."""

Q = 1.602176634e-19        # elementary charge [C]
MU0 = 1.25663706212e-6     # vacuum permeability [T m / A]
KB = 1.380649e-23          # Boltzmann constant [J / K]
GAMMA = 1.76085963023e11   # gyromagnetic ratio of the free electron [rad / (s T)]
MU_B = 9.2740100783e-24    # Bohr magneton [J / T]
