package opinion

// DiffuseFromGuarded is DiffuseFrom with the saturation guard's in-edge limit
// chosen by the test: below 0 every run goes dense at its first step.
var DiffuseFromGuarded = diffuseFrom

// PatchTrajectoryBudget is PatchTrajectory with its in-edge budget chosen by
// the test.
var PatchTrajectoryBudget = patchTrajectory

// PatchDivisor sets PatchTrajectory's budget: m/PatchDivisor in-edges.
const PatchDivisor = patchDivisor
