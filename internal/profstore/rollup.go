package profstore

import (
	"time"

	"ipmgo/internal/ipm"
)

// rollup is the per-job pre-aggregation computed once at ingest: every
// quantity Aggregate and Regress need from a job, reduced from the
// per-rank entry walk to a handful of maps. Because ipm.Stats.Merge is
// commutative and associative (integer sums plus zero-count-guarded
// min/max) and every float in a report is derived only after the final
// integer merge, merging rollups job-by-job is byte-identical to the
// original walk over every rank entry — in any merge order.
//
// A rollup is immutable once built; concurrent aggregations may read it
// without locking.
type rollup struct {
	wall  time.Duration // summed rank wallclock
	gpu   time.Duration // @CUDA_EXEC_STRMxx stream totals
	xfer  time.Duration // host-side Memcpy/Memset call-site totals
	idle  time.Duration // @CUDA_HOST_IDLE
	mpi   time.Duration // DomainMPI call sites
	stall time.Duration // command-queue submit stall summed over ranks

	// energy is the job's attributed device energy in integer
	// nanojoules, summed over ranks; zero for jobs from unpowered runs.
	energy int64

	lostRanks int

	// sites accumulates per call-site stats with per-kernel pseudo
	// entries excluded — the call-site table of /agg and the rows /regress
	// compares.
	sites map[string]ipm.Stats
	// kernels accumulates the per-kernel pseudo entries
	// (@CUDA_EXEC_STRMxx:kernel) by kernel name.
	kernels map[string]ipm.Stats
	// imb is the per call-site imbalance (max/avg over ranks), one row
	// per distinct site, in FuncTotals order. Empty for single-rank jobs,
	// which carry no balance information.
	imb []ImbalanceAgg
}

// computeRollup reduces one job profile. jobID labels the imbalance rows.
func computeRollup(jp *ipm.JobProfile, jobID string) *rollup {
	ro := &rollup{
		sites:   make(map[string]ipm.Stats),
		kernels: make(map[string]ipm.Stats),
	}
	for _, r := range jp.Ranks {
		ro.wall += r.Wallclock
		ro.stall += r.SubmitStall
		ro.energy += r.Energy
		if r.Lost {
			ro.lostRanks++
		}
		for _, e := range r.Entries {
			name := e.Sig.Name
			switch {
			case isGPUExec(name):
				ro.gpu += e.Stats.Total
			case name == ipm.HostIdleName:
				ro.idle += e.Stats.Total
			case e.Sig.Pseudo():
				// Per-kernel pseudo entries are tallied below; other
				// pseudo entries only appear in the call-site table.
			case isTransfer(name):
				ro.xfer += e.Stats.Total
			}
			if ipm.Classify(name) == ipm.DomainMPI {
				ro.mpi += e.Stats.Total
			}
			if k := kernelOf(name); k != "" {
				st := ro.kernels[k]
				st.Merge(e.Stats)
				ro.kernels[k] = st
				continue // per-kernel entries double the stream totals; keep them out of call sites
			}
			st := ro.sites[name]
			st.Merge(e.Stats)
			ro.sites[name] = st
		}
	}
	if len(jp.Ranks) > 1 {
		for _, ft := range jp.FuncTotals() {
			ro.imb = append(ro.imb, ImbalanceAgg{
				Name: ft.Name, MaxOverAvg: jp.Imbalance(ft.Name), WorstJob: jobID,
			})
		}
	}
	return ro
}

// roll returns the job's rollup, computing one on the fly (without
// caching, to stay race-free on shared Jobs) for jobs that were built
// outside Store.ingest.
func (j *Job) roll() *rollup {
	if j.rollup != nil {
		return j.rollup
	}
	return computeRollup(j.Profile(), j.ID)
}
