// Package machine is the one description of the modeled machine: the
// caches, the trace-driven core, the analytic cycle model and the CLIs
// all read it and none restates a number from it. It imports nothing.
package machine

// Cache is one cache level.
type Cache struct {
	SizeBytes  int
	Assoc      int
	LatencyCyc int // hit latency in cycles
}

// Machine is a core, its predictor, its cache hierarchy and its clock.
type Machine struct {
	Predictor           string // bpred.NewByName name
	BTBEntries, BTBWays int

	Width             int // fetch/dispatch/retire width
	ROBSize           int
	LQSize            int
	SQSize            int
	FrontendDepth     int // fetch→dispatch latency in cycles
	MispredictPenalty int // flush + refill cycles
	ALUs              int
	VecUnits          int
	LoadPorts         int
	StorePorts        int
	BranchUnits       int
	VecLatency        int // cycles from a vector op's issue to its result

	L1I, L1D, L2, LLC Cache
	MemLatency        int // DRAM access latency in cycles

	// ClockHz turns cycles into modeled wall time, which is what time
	// columns report: host wall time differs on every run and machine,
	// while modeled time is deterministic and preserves the
	// instruction-count-driven shapes the paper reads from its time axes.
	ClockHz float64
}

// Xeon returns the paper's measurement machine, the Xeon E5-2650 v4
// (Broadwell, 2.2 GHz base): 4-wide, 224-entry ROB, 72/42 LQ/SQ, a
// TAGE-like predictor, 32KB L1I and L1D, 256KB L2 and the 30MB LLC. The
// LLC is shared on the part; the single-core model gives one core the
// whole of it, which matches the paper's single-threaded
// characterization runs.
func Xeon() Machine {
	return Machine{
		Predictor: "tage-8KB", BTBEntries: 4096, BTBWays: 4,
		Width: 4, ROBSize: 224, LQSize: 72, SQSize: 42,
		FrontendDepth: 5, MispredictPenalty: 16,
		ALUs: 4, VecUnits: 2, LoadPorts: 2, StorePorts: 1, BranchUnits: 1,
		VecLatency: 3,
		L1I:        Cache{SizeBytes: 32 << 10, Assoc: 8, LatencyCyc: 4},
		L1D:        Cache{SizeBytes: 32 << 10, Assoc: 8, LatencyCyc: 4},
		L2:         Cache{SizeBytes: 256 << 10, Assoc: 8, LatencyCyc: 12},
		LLC:        Cache{SizeBytes: 30 << 20, Assoc: 20, LatencyCyc: 38},
		MemLatency: 220,
		ClockHz:    2.2e9,
	}
}

// FlushCycles is what one mispredict costs a model that counts events
// instead of replaying them. The trace-driven core restarts fetch
// MispredictPenalty cycles after the branch resolves and the refilled
// op then spends FrontendDepth cycles reaching dispatch; the first of
// those is its own fetch cycle, which a width-bound base already
// charges every op, so the analytic model adds the rest: 16 + 5 − 1 =
// 20 on the Xeon.
func (m Machine) FlushCycles() int { return m.MispredictPenalty + m.FrontendDepth - 1 }

// MissPenalties returns what a miss at each data level adds to an
// access: the next level's latency less the level's own.
func (m Machine) MissPenalties() (l1d, l2, llc int) {
	return m.L2.LatencyCyc - m.L1D.LatencyCyc,
		m.LLC.LatencyCyc - m.L2.LatencyCyc,
		m.MemLatency - m.LLC.LatencyCyc
}
