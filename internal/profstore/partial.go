package profstore

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"ipmgo/internal/ipm"
)

// Partial is the mergeable pre-aggregation of a set of jobs: exactly
// the quantities AggReport and RegressReport are derived from, and
// nothing a report only needs at render time. Every sum is an integer
// (durations in nanoseconds, energy in nanojoules), the per-site and
// per-kernel rows are ipm.Stats merges, and the imbalance table is a
// max with a deterministic tie-break. Merging is therefore exact,
// commutative and associative, and floats appear only in Report and
// RegressPartials. TopN is applied only there too, after the last merge:
// a row that misses one part's top N can still make the merged one.
//
// A single node builds one Partial from its selection and finalizes it;
// a cluster member builds one from the jobs it is primary for and ships
// it to the router, which merges a handful of partials instead of every
// job's rollup. Both go through the same merge and the same finalize.
type Partial struct {
	jobs, ranks, lostRanks, salvaged int

	wall, gpu, xfer, idle, mpi, stall time.Duration
	energy                            int64 // nanojoules

	sites   map[string]*ipm.Stats
	kernels map[string]*ipm.Stats
	// worst is the per-site worst imbalance: highest MaxOverAvg, ties to
	// the smallest WorstJob — the row a walk over jobs in id order keeps.
	worst map[string]ImbalanceAgg
	// jobEnergy lists the jobs carrying energy attribution, in id order.
	jobEnergy []jobEnergy
}

// jobEnergy is one per-job energy row before float conversion.
type jobEnergy struct {
	id    string
	ranks int
	nj    int64
}

func newPartial() *Partial {
	return &Partial{
		sites:   make(map[string]*ipm.Stats),
		kernels: make(map[string]*ipm.Stats),
		worst:   make(map[string]ImbalanceAgg),
	}
}

// BuildPartial reduces jobs to one partial. jobs must be in id order, as
// Select, MergeWireJobs and FilterJobs return them; the energy rows keep
// that order.
func BuildPartial(jobs []*Job) *Partial {
	p := newPartial()
	for _, job := range jobs {
		p.add(job)
	}
	return p
}

// add folds one job's ingest-time rollup into p.
func (p *Partial) add(job *Job) {
	ro := job.rollup
	p.jobs++
	p.ranks += job.Ranks
	p.lostRanks += ro.lostRanks
	if job.Salvaged {
		p.salvaged++
	}
	p.wall += ro.wall
	p.gpu += ro.gpu
	p.xfer += ro.xfer
	p.idle += ro.idle
	p.mpi += ro.mpi
	p.stall += ro.stall
	if ro.energy != 0 {
		p.energy += ro.energy
		p.jobEnergy = append(p.jobEnergy, jobEnergy{id: job.ID, ranks: job.Ranks, nj: ro.energy})
	}
	for name, st := range ro.sites {
		mergeInto(p.sites, name, st)
	}
	for name, st := range ro.kernels {
		mergeInto(p.kernels, name, st)
	}
	for _, ia := range ro.imb {
		p.keepWorst(ia)
	}
}

// mergeInto folds st into m[name]. The rows are pointers so a merge is
// one map lookup, not a read and a write-back of the whole Stats.
func mergeInto(m map[string]*ipm.Stats, name string, st ipm.Stats) {
	acc, ok := m[name]
	if !ok {
		acc = &ipm.Stats{}
		m[name] = acc
	}
	acc.Merge(st)
}

// keepWorst records ia if it is the worst imbalance seen for its site.
func (p *Partial) keepWorst(ia ImbalanceAgg) {
	w, ok := p.worst[ia.Name]
	if !ok || ia.MaxOverAvg > w.MaxOverAvg || (ia.MaxOverAvg == w.MaxOverAvg && ia.WorstJob < w.WorstJob) {
		p.worst[ia.Name] = ia
	}
}

// MergePartials merges parts into a new partial; the parts are not
// modified, so memoized partials may be passed. The parts should cover
// disjoint job sets (a job in two parts is counted twice).
func MergePartials(parts ...*Partial) *Partial {
	p := newPartial()
	for _, q := range parts {
		p.jobs += q.jobs
		p.ranks += q.ranks
		p.lostRanks += q.lostRanks
		p.salvaged += q.salvaged
		p.wall += q.wall
		p.gpu += q.gpu
		p.xfer += q.xfer
		p.idle += q.idle
		p.mpi += q.mpi
		p.stall += q.stall
		p.energy += q.energy
		for name, st := range q.sites {
			mergeInto(p.sites, name, *st)
		}
		for name, st := range q.kernels {
			mergeInto(p.kernels, name, *st)
		}
		for _, ia := range q.worst {
			p.keepWorst(ia)
		}
		p.jobEnergy = mergeEnergy(p.jobEnergy, q.jobEnergy)
	}
	return p
}

// mergeEnergy merges two id-ordered row lists into a new one.
func mergeEnergy(a, b []jobEnergy) []jobEnergy {
	if len(b) == 0 {
		return a
	}
	out := make([]jobEnergy, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].id < a[0].id {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// wirePartial is a Partial on the wire: the WireJob keys for the sums,
// name-sorted WireSite rows, imbalance rows in name order and energy
// rows in id order, so one partial has exactly one encoding. The
// imbalance ratio is the one float: a max, never summed, and
// encoding/json round-trips float64 exactly.
type wirePartial struct {
	Jobs     int `json:"jobs,omitempty"`
	Ranks    int `json:"ranks,omitempty"`
	Lost     int `json:"lost,omitempty"`
	Salvaged int `json:"salv,omitempty"`

	Wall   int64 `json:"w,omitempty"`
	GPU    int64 `json:"g,omitempty"`
	Xfer   int64 `json:"x,omitempty"`
	Idle   int64 `json:"i,omitempty"`
	MPI    int64 `json:"mpi,omitempty"`
	Stall  int64 `json:"st,omitempty"`
	Energy int64 `json:"en,omitempty"`

	Sites     []WireSite      `json:"sites,omitempty"`
	Kernels   []WireSite      `json:"kern,omitempty"`
	Imb       []WireImb       `json:"imb,omitempty"`
	JobEnergy []wireJobEnergy `json:"je,omitempty"`
}

type wireJobEnergy struct {
	ID     string `json:"id"`
	Ranks  int    `json:"r,omitempty"`
	Energy int64  `json:"en"`
}

func (p *Partial) wire() wirePartial {
	w := wirePartial{
		Jobs: p.jobs, Ranks: p.ranks, Lost: p.lostRanks, Salvaged: p.salvaged,
		Wall: int64(p.wall), GPU: int64(p.gpu), Xfer: int64(p.xfer),
		Idle: int64(p.idle), MPI: int64(p.mpi), Stall: int64(p.stall),
		Energy:  p.energy,
		Sites:   wireRows(p.sites),
		Kernels: wireRows(p.kernels),
	}
	for _, ia := range p.worst {
		w.Imb = append(w.Imb, WireImb{Name: ia.Name, MaxOverAvg: ia.MaxOverAvg, WorstJob: ia.WorstJob})
	}
	sort.Slice(w.Imb, func(i, j int) bool { return w.Imb[i].Name < w.Imb[j].Name })
	for _, je := range p.jobEnergy {
		w.JobEnergy = append(w.JobEnergy, wireJobEnergy{ID: je.id, Ranks: je.ranks, Energy: je.nj})
	}
	return w
}

func (w wirePartial) partial() *Partial {
	p := &Partial{
		jobs: w.Jobs, ranks: w.Ranks, lostRanks: w.Lost, salvaged: w.Salvaged,
		wall: time.Duration(w.Wall), gpu: time.Duration(w.GPU),
		xfer: time.Duration(w.Xfer), idle: time.Duration(w.Idle),
		mpi: time.Duration(w.MPI), stall: time.Duration(w.Stall),
		energy:  w.Energy,
		sites:   rowsMap(w.Sites),
		kernels: rowsMap(w.Kernels),
		worst:   make(map[string]ImbalanceAgg, len(w.Imb)),
	}
	for _, ia := range w.Imb {
		p.worst[ia.Name] = ImbalanceAgg{Name: ia.Name, MaxOverAvg: ia.MaxOverAvg, WorstJob: ia.WorstJob}
	}
	if len(w.JobEnergy) > 0 {
		p.jobEnergy = make([]jobEnergy, len(w.JobEnergy))
		for i, je := range w.JobEnergy {
			p.jobEnergy[i] = jobEnergy{id: je.ID, ranks: je.Ranks, nj: je.Energy}
		}
	}
	return p
}

func wireRows(m map[string]*ipm.Stats) []WireSite {
	out := make([]WireSite, 0, len(m))
	for name, st := range m {
		out = append(out, WireSite{Name: name, WireStats: toWireStats(*st)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func rowsMap(ws []WireSite) map[string]*ipm.Stats {
	m := make(map[string]*ipm.Stats, len(ws))
	for _, w := range ws {
		st := w.stats()
		m[w.Name] = &st
	}
	return m
}

// EncodePartials renders the compact one-line JSON body of a
// /shard/rollups response in partial mode: one partial per selector.
func EncodePartials(parts []*Partial) ([]byte, error) {
	ws := make([]wirePartial, len(parts))
	for i, p := range parts {
		ws[i] = p.wire()
	}
	return json.Marshal(ws)
}

// DecodePartials parses an EncodePartials body.
func DecodePartials(data []byte) ([]*Partial, error) {
	var ws []wirePartial
	if err := json.Unmarshal(data, &ws); err != nil {
		return nil, fmt.Errorf("profstore: decoding partials: %w", err)
	}
	out := make([]*Partial, len(ws))
	for i, w := range ws {
		out[i] = w.partial()
	}
	return out, nil
}
