package barrierpoint

// PrevWarmupWindow is runPoint's MRUPrevWarmup window, for the external
// tests' stepwise re-simulations of a run.
const PrevWarmupWindow = prevWarmupWindow

// SimulateRun simulates one run on the first Run of a fresh PrefixPass: a
// farm task's unit of work, and SimulatePoint's for n == 1.
func SimulateRun(p Program, head, n int, mc MachineConfig, mode WarmupMode) ([]RegionResult, error) {
	simulate, err := NewPrefixPass(mc).Run(p, head, n, mode, nil)
	if err != nil {
		return nil, err
	}
	return simulate()
}
