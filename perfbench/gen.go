package main

import (
	"bytes"
	"fmt"
	"time"

	"ipmgo/internal/cluster"
	"ipmgo/internal/devmodel"
	"ipmgo/internal/faultsim"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/workloads"
)

// rng is a splitmix64 stream: every input the benchmark feeds the
// program is drawn from one, seeded from --seed, so a seed names its
// inputs exactly.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// jobSpec is one monitored job: which application model, on what
// cluster shape, with which device backend and queue setting.
type jobSpec struct {
	Kind   string // hpl, paratec, amber, faultdemo, or an SDK benchmark name
	Nodes  int
	RPN    int // ranks per node
	Device string
	Queue  bool
	Noise  int64
	Steps  int   // iterations or steps; for an SDK benchmark, the invocation divisor
	Death  int   // faultdemo: rank killed by the fault plan
	DieAt  int64 // faultdemo: virtual microseconds of the rank death
}

// stratum fixes the part of a job every seed shares — application
// model, node count, ranks per node — so that two seeds draw decks of
// the same shape and differ only in the details deck draws.
type stratum struct {
	kind       string // hpl, paratec, amber, faultdemo, or an SDK benchmark name
	nodes, rpn int
	weight     int // relative frequency in the store corpora
}

// strata span 1 to 16 nodes (how many call sites fill each rank's IPM
// hash table and how many rank sections a document carries), every
// bundled application model and every SDK benchmark. The corpus weights
// favour small documents. They are an assumption, not taken from any
// centre's job log: they set the mean document at about 10 KB, and with
// it the ingest bytes, the scan cost and the rollups' decode cost. The
// 16-node Amber job at three ranks per node is the ~400 KB document.
var strata = []stratum{
	{"BlackScholes", 1, 1, 12}, {"FDTD3d", 2, 1, 8}, {"MersenneTwister", 1, 1, 12}, {"MonteCarlo", 4, 1, 4},
	{"concurrentKernels", 8, 1, 2}, {"eigenvalues", 2, 1, 8}, {"quasirandomGenerator", 1, 1, 12}, {"scan", 1, 1, 12},
	{"hpl", 1, 1, 16}, {"hpl", 4, 1, 4}, {"hpl", 16, 1, 1},
	{"paratec", 2, 1, 12}, {"paratec", 8, 1, 2},
	{"amber", 1, 1, 16}, {"amber", 4, 1, 4}, {"amber", 16, 3, 1},
	{"faultdemo", 4, 1, 8}, {"faultdemo", 16, 1, 1},
}

var devices = []string{"c2050", "a100", "cl-generic"}

// deck draws every stratum once on each device backend. The seed picks
// the noise seed, the step count (within a narrow band, so decks of
// different seeds cost about the same to simulate) and the fault plan;
// queue on and off alternate so every deck has both.
func deck(seed int64) []jobSpec {
	r := newRNG(seed, 1)
	qflip := r.intn(2) == 1
	var out []jobSpec
	for _, st := range strata {
		for _, dev := range devices {
			js := jobSpec{
				Kind: st.kind, Nodes: st.nodes, RPN: st.rpn, Device: dev,
				Queue: (len(out)%2 == 1) != qflip,
				Noise: int64(r.next() >> 1),
			}
			switch st.kind {
			case "hpl":
				js.Steps = 9 + r.intn(3)
			case "paratec":
				js.Steps = 2 + r.intn(2)
			case "amber":
				js.Steps = 28 + r.intn(5)
			case "faultdemo":
				js.Steps = 40
				js.Death = 1 + r.intn(st.nodes*st.rpn-1)
				js.DieAt = int64(50_000 + r.intn(150_000))
			default: // an SDK benchmark, its invocations divided by Steps
				js.Steps = 5
			}
			out = append(out, js)
		}
	}
	return out
}

// config turns a spec into the cluster configuration and application
// the way cmd/ipmrun does for the same flags.
func (js jobSpec) config() (cluster.Config, func(*cluster.Env), error) {
	cfg := cluster.Dirac(js.Nodes, js.RPN)
	dev, ok := devmodel.Lookup(js.Device)
	if !ok {
		return cfg, nil, fmt.Errorf("unknown device %q", js.Device)
	}
	cfg.Device = dev
	cfg.GPU = dev.GPU
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.NoiseSeed = js.Noise
	cfg.NoiseAmp = 0.01
	cfg.Queue = js.Queue
	cfg.Command = "./" + js.Kind
	var app func(*cluster.Env)
	switch js.Kind {
	case "hpl":
		h := workloads.HPLConfig{Iterations: js.Steps, Scale: 0.01}
		app = func(e *cluster.Env) { must(workloads.HPL(e, h)) }
	case "paratec":
		cfg.LibCostOnly = true
		p := workloads.DefaultParatec(true)
		p.Iterations = js.Steps
		app = func(e *cluster.Env) { must(workloads.Paratec(e, p)) }
	case "amber":
		cfg.Runtime = workloads.AmberRuntimeOptions()
		a := workloads.AmberConfig{Steps: js.Steps}
		app = func(e *cluster.Env) { must(workloads.Amber(e, a)) }
	case "faultdemo":
		cfg.Faults = &faultsim.Plan{Seed: js.Noise, Faults: []faultsim.Fault{{
			Type: faultsim.KindRankDeath, Rank: js.Death,
			At: faultsim.Dur(time.Duration(js.DieAt) * time.Microsecond),
		}}}
		d := workloads.DefaultFaultDemo()
		d.Steps = js.Steps
		app = func(e *cluster.Env) { workloads.FaultDemo(e, d) }
	default:
		var bench *workloads.SDKBenchmark
		for _, b := range workloads.SDKSuite() {
			if b.Name == js.Kind {
				bench = &b
			}
		}
		if bench == nil {
			return cfg, nil, fmt.Errorf("unknown job kind %q", js.Kind)
		}
		bench.Invocations = max(1, bench.Invocations/js.Steps)
		app = func(e *cluster.Env) { must(bench.Run(e)) }
	}
	return cfg, app, nil
}

// must turns a workload model's error into a panic inside the
// simulated rank; cluster.Run reports it as the run's error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// simulated is one finished job: its profile and XML log.
type simulated struct {
	profile *ipm.JobProfile
	xml     []byte
	runNS   int64 // host time inside cluster.Run
	writeNS int64 // host time inside ipm.WriteXML
}

// stampPlaceholder is the profile start time every rendered base
// carries; stamp overwrites it in place to make distinct documents
// (and so distinct content-derived ids) without re-rendering.
const stampPlaceholder = "2011-05-16T00:00:00.000000000Z"

// simulate runs one job through cluster.Run and ipm.WriteXML. With
// stamped set, the profile's start attribute is the placeholder.
func simulate(js jobSpec, stamped bool) (*simulated, error) {
	cfg, app, err := js.config()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := cluster.Run(cfg, app)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("%s on %d nodes: %w", js.Kind, js.Nodes, err)
	}
	if stamped {
		res.Profile.Start = stampPlaceholder
	}
	var buf bytes.Buffer
	if err := ipm.WriteXML(&buf, res.Profile); err != nil {
		return nil, err
	}
	t2 := time.Now()
	return &simulated{profile: res.Profile, xml: buf.Bytes(),
		runNS: t1.Sub(t0).Nanoseconds(), writeNS: t2.Sub(t1).Nanoseconds()}, nil
}

// corpus is the store workloads' input: rendered base documents and
// seeded streams of (base, stamp, tag) draws that turn into distinct
// documents on demand.
type corpus struct {
	writeMS float64 // mean ipm.WriteXML time of the bases
	bases   [][]byte
	offset  []int   // index of the stamp placeholder in each base
	order   [][]int // per stream: a seeded shuffle of the weighted base table
}

// newCorpus renders one base per stratum, each on the device backend
// the seed rotates to.
func newCorpus(seed int64) (*corpus, error) {
	c := &corpus{}
	jobs := deck(seed)
	rot := newRNG(seed, 2).intn(len(devices))
	for i := range strata {
		js := jobs[i*len(devices)+(i+rot)%len(devices)]
		s, err := simulate(js, true)
		if err != nil {
			return nil, err
		}
		off := bytes.Index(s.xml, []byte(stampPlaceholder))
		if off < 0 {
			return nil, fmt.Errorf("base %d: no start stamp in XML", i)
		}
		c.writeMS += float64(s.writeNS) / 1e6 / float64(len(strata))
		c.bases = append(c.bases, s.xml)
		c.offset = append(c.offset, off)
	}
	c.order = drawOrders(seed)
	return c, nil
}

// drawOrders shuffles the weighted base table once per stream.
func drawOrders(seed int64) [][]int {
	var table []int
	for i, st := range strata {
		for w := 0; w < st.weight; w++ {
			table = append(table, i)
		}
	}
	orders := make([][]int, maxStreams)
	for stream := range orders {
		r := newRNG(seed, uint64(1000+stream))
		order := append([]int(nil), table...)
		for i := len(order) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		orders[stream] = order
	}
	return orders
}

// maxStreams bounds the document streams; the stream number is the
// minutes field of the stamp.
const maxStreams = 60

// numTags is the number of build tags ("b0".."b7") spread over the
// corpus: /jobs and /regress select by tag, so each touches an eighth
// of the jobs.
const numTags = 8

// docRef names one corpus document: the k-th draw of a stream. Streams
// keep the preload, the ingest phases and each query client's writes
// apart, so no two draws share a stamp.
type docRef struct {
	Base   int
	Stream int // < maxStreams
	K      int // < 1e9
	Tag    int
}

// draw returns the k-th document of a stream. Every run of
// len(order) consecutive draws holds each base exactly as often as its
// weight says, and tags rotate, so corpora of different seeds differ in
// order and detail but not in composition.
func (c *corpus) draw(stream, k int) docRef {
	order := c.order[stream]
	return docRef{Base: order[k%len(order)], Stream: stream, K: k, Tag: (k + stream) % numTags}
}

// render writes the document into buf (reused across calls) and
// returns it. The stamp keeps the placeholder's width, so the result is
// the exact XML ipm.WriteXML would have produced for that start time.
func (c *corpus) render(d docRef, buf []byte) []byte {
	base := c.bases[d.Base]
	buf = append(buf[:0], base...)
	stamp := fmt.Sprintf("2011-05-16T00:%02d:00.%09dZ", d.Stream, d.K)
	copy(buf[c.offset[d.Base]:], stamp)
	return buf
}

func tagName(t int) string { return fmt.Sprintf("b%d", t) }
