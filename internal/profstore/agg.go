package profstore

import (
	"sort"
	"strings"

	"ipmgo/internal/ipm"
)

// This file computes the cross-job rollups behind GET /agg: the
// workload-level views that motivate running IPM on every job (paper
// Section II). Every slice in the report has a total ordering (time
// descending, then name ascending) and every number is accumulated as an
// integer duration before a single final float conversion, so the same
// corpus renders byte-identically regardless of ingest order, shard
// layout, or how many goroutines filled the store.

// AggOptions selects and sizes an aggregation.
type AggOptions struct {
	Sel  string // job selector (see Store.Select); "" = whole corpus
	TopN int    // rows kept in the top-kernel and imbalance tables (default 10)
}

// CallSiteAgg is one call-site signature rolled up across jobs and ranks.
type CallSiteAgg struct {
	Name     string  `json:"name"`
	Domain   string  `json:"domain"` // MPI / CUDA / CUBLAS / CUFFT / pseudo / other
	Calls    int64   `json:"calls"`
	Errors   int64   `json:"errors,omitempty"`
	Seconds  float64 `json:"seconds"`
	PerCall  float64 `json:"per_call_seconds"`
	WallPct  float64 `json:"wall_pct"`
	Transfer bool    `json:"transfer,omitempty"`
	// Submits/SubmitStallSeconds surface the driver command-queue layer:
	// how many commands this call site pushed through a submission queue
	// and the total virtual time they waited before device hand-off.
	Submits            int64   `json:"submits,omitempty"`
	SubmitStallSeconds float64 `json:"submit_stall_seconds,omitempty"`
	// EnergyJoules is the device energy attributed to this call site by
	// the power model (zero when the producing runs were unpowered).
	EnergyJoules float64 `json:"energy_joules,omitempty"`
}

// KernelAgg is one GPU kernel rolled up across streams, ranks and jobs.
type KernelAgg struct {
	Kernel   string  `json:"kernel"`
	Launches int64   `json:"launches"`
	Seconds  float64 `json:"seconds"`
}

// ImbalanceAgg reports the worst per-rank load imbalance (max/avg) seen
// for one call site, and the job it occurred in.
type ImbalanceAgg struct {
	Name       string  `json:"name"`
	MaxOverAvg float64 `json:"max_over_avg"`
	WorstJob   string  `json:"worst_job"`
}

// JobEnergyAgg is the per-job energy rollup: total attributed joules and
// the per-rank average. Jobs without energy attribution are omitted.
type JobEnergyAgg struct {
	Job           string  `json:"job"`
	Ranks         int     `json:"ranks"`
	EnergyJoules  float64 `json:"energy_joules"`
	PerRankJoules float64 `json:"per_rank_joules"`
}

// AggReport is the GET /agg response body.
type AggReport struct {
	Selector  string `json:"selector,omitempty"`
	Jobs      int    `json:"jobs"`
	Ranks     int    `json:"ranks"`
	LostRanks int    `json:"lost_ranks,omitempty"`
	Salvaged  int    `json:"salvaged_jobs,omitempty"`

	WallclockSeconds float64 `json:"wallclock_seconds"` // summed over ranks
	GPUSeconds       float64 `json:"gpu_seconds"`
	TransferSeconds  float64 `json:"transfer_seconds"`
	HostIdleSeconds  float64 `json:"host_idle_seconds"`
	MPISeconds       float64 `json:"mpi_seconds"`
	// SubmitStallSeconds sums command-queue submit stall over every rank
	// of every selected job (zero when no job modelled the queue layer).
	SubmitStallSeconds float64 `json:"submit_stall_seconds,omitempty"`
	// EnergyJoules sums attributed device energy over every rank of
	// every selected job (zero when no job carried a power model).
	EnergyJoules float64 `json:"energy_joules,omitempty"`

	// Fleet fractions of total rank wallclock: how busy the GPUs were
	// and how long hosts sat blocked behind them.
	GPUBusyFraction     float64 `json:"gpu_busy_fraction"`
	HostBlockedFraction float64 `json:"host_blocked_fraction"`

	CallSites  []CallSiteAgg  `json:"call_sites"`
	TopKernels []KernelAgg    `json:"top_kernels"`
	Imbalance  []ImbalanceAgg `json:"imbalance"`
	// JobEnergy lists the selected jobs carrying energy attribution, in
	// job-id order (the Select order), so the table is deterministic for
	// any ingest order.
	JobEnergy []JobEnergyAgg `json:"job_energy,omitempty"`
}

// isTransfer classifies a host call site as a host<->device transfer.
func isTransfer(name string) bool {
	return strings.Contains(name, "Memcpy") || strings.Contains(name, "Memset")
}

// kernelOf extracts the kernel name from a per-kernel pseudo entry
// (@CUDA_EXEC_STRMxx:kernel), or "" when the entry is not one.
func kernelOf(name string) string {
	if !strings.HasPrefix(name, "@CUDA_EXEC_STRM") {
		return ""
	}
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[i+1:]
	}
	return ""
}

// Aggregate computes the cross-job rollup for the selected jobs. Repeated
// aggregations of an unchanged store are served from the epoch-keyed memo
// cache (see memo.go); the returned report is shared and must not be
// mutated.
func (s *Store) Aggregate(opts AggOptions) *AggReport {
	if opts.TopN <= 0 {
		opts.TopN = 10
	}
	key := memoKey{kind: "agg", a: opts.Sel, n: opts.TopN}
	ep := s.epoch.Load()
	if rep, ok := s.memoLookup(ep, key); ok {
		return rep.(*AggReport)
	}
	rep := s.aggregateCold(opts)
	s.memoStore(ep, key, rep)
	return rep
}

// aggregateCold is the uncached aggregation path (also what the cold-path
// benchmark measures).
func (s *Store) aggregateCold(opts AggOptions) *AggReport {
	return aggregateJobs(s.Select(opts.Sel), opts)
}

// aggregateJobs reduces the jobs' ingest-time rollups to one Partial
// and finalizes it: the query-time cost is proportional to the number
// of distinct call sites and kernels, not the number of rank entries.
func aggregateJobs(jobs []*Job, opts AggOptions) *AggReport {
	return BuildPartial(jobs).Report(opts)
}

// Report finalizes the partial into the GET /agg body for opts.
func (p *Partial) Report(opts AggOptions) *AggReport {
	topN := opts.TopN
	if topN <= 0 {
		topN = 10
	}
	rep := &AggReport{
		Selector: opts.Sel, Jobs: p.jobs, Ranks: p.ranks,
		LostRanks: p.lostRanks, Salvaged: p.salvaged,

		WallclockSeconds:   p.wall.Seconds(),
		GPUSeconds:         p.gpu.Seconds(),
		TransferSeconds:    p.xfer.Seconds(),
		HostIdleSeconds:    p.idle.Seconds(),
		MPISeconds:         p.mpi.Seconds(),
		SubmitStallSeconds: p.stall.Seconds(),
		EnergyJoules:       float64(p.energy) / 1e9,
	}
	if p.wall > 0 {
		rep.GPUBusyFraction = float64(p.gpu) / float64(p.wall)
		rep.HostBlockedFraction = float64(p.idle) / float64(p.wall)
	}
	if len(p.jobEnergy) > 0 {
		rep.JobEnergy = make([]JobEnergyAgg, 0, len(p.jobEnergy))
	}
	for _, je := range p.jobEnergy {
		row := JobEnergyAgg{Job: je.id, Ranks: je.ranks, EnergyJoules: float64(je.nj) / 1e9}
		if je.ranks > 0 {
			row.PerRankJoules = row.EnergyJoules / float64(je.ranks)
		}
		rep.JobEnergy = append(rep.JobEnergy, row)
	}

	rep.CallSites = make([]CallSiteAgg, 0, len(p.sites))
	for name, acc := range p.sites {
		row := CallSiteAgg{
			Name:     name,
			Domain:   ipm.Classify(name).String(),
			Calls:    acc.Count,
			Errors:   acc.Errors,
			Seconds:  acc.Total.Seconds(),
			Transfer: !strings.HasPrefix(name, "@") && isTransfer(name),
			Submits:  acc.Submits,
		}
		row.SubmitStallSeconds = acc.SubmitStall.Seconds()
		row.EnergyJoules = acc.EnergyJoules()
		if acc.Count > 0 {
			row.PerCall = acc.Avg().Seconds()
		}
		if p.wall > 0 {
			row.WallPct = 100 * float64(acc.Total) / float64(p.wall)
		}
		rep.CallSites = append(rep.CallSites, row)
	}
	sort.Slice(rep.CallSites, func(i, j int) bool {
		a, b := rep.CallSites[i], rep.CallSites[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		return a.Name < b.Name
	})

	rep.TopKernels = make([]KernelAgg, 0, len(p.kernels))
	for k, st := range p.kernels {
		rep.TopKernels = append(rep.TopKernels, KernelAgg{
			Kernel: k, Launches: st.Count, Seconds: st.Total.Seconds(),
		})
	}
	sort.Slice(rep.TopKernels, func(i, j int) bool {
		a, b := rep.TopKernels[i], rep.TopKernels[j]
		if a.Seconds != b.Seconds {
			return a.Seconds > b.Seconds
		}
		return a.Kernel < b.Kernel
	})
	if len(rep.TopKernels) > topN {
		rep.TopKernels = rep.TopKernels[:topN]
	}

	rep.Imbalance = make([]ImbalanceAgg, 0, len(p.worst))
	for _, w := range p.worst {
		rep.Imbalance = append(rep.Imbalance, w)
	}
	sort.Slice(rep.Imbalance, func(i, j int) bool {
		a, b := rep.Imbalance[i], rep.Imbalance[j]
		if a.MaxOverAvg != b.MaxOverAvg {
			return a.MaxOverAvg > b.MaxOverAvg
		}
		return a.Name < b.Name
	})
	if len(rep.Imbalance) > topN {
		rep.Imbalance = rep.Imbalance[:topN]
	}
	return rep
}
