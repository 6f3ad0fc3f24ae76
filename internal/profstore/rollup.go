package profstore

import (
	"time"

	"ipmgo/internal/ipm"
)

// rollup is the per-job pre-aggregation computed once at ingest (by
// rollupSink, ingest.go) or carried over the wire (WireJob.Job): every
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
