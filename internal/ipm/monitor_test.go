package ipm

import (
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) clock() time.Duration { return f.now }

func newTestMonitor() (*Monitor, *fakeClock) {
	fc := &fakeClock{}
	return NewMonitor(0, "dirac15", "./cuda.ipm", fc.clock, 0), fc
}

func TestMonitorWallclock(t *testing.T) {
	m, fc := newTestMonitor()
	if m.Wallclock() != 0 {
		t.Error("wallclock before start not zero")
	}
	fc.now = time.Second
	m.Start()
	fc.now = 3 * time.Second
	if m.Wallclock() != 2*time.Second {
		t.Errorf("running wallclock = %v", m.Wallclock())
	}
	m.Stop()
	fc.now = 10 * time.Second
	if m.Wallclock() != 2*time.Second {
		t.Errorf("stopped wallclock = %v", m.Wallclock())
	}
	// Idempotent start/stop.
	m.Start()
	m.Stop()
	if m.Wallclock() != 2*time.Second {
		t.Error("restart changed bracket")
	}
}

func TestMonitorObserveAndTimed(t *testing.T) {
	m, fc := newTestMonitor()
	m.Start()
	m.Observe("cudaMalloc", 0, 2430*time.Millisecond)
	m.Timed("cudaMemcpy(D2H)", 800000, func() { fc.now += 1160 * time.Millisecond })
	s, ok := m.Table().Lookup(Sig{Name: "cudaMemcpy(D2H)", Bytes: 800000})
	if !ok || s.Total != 1160*time.Millisecond {
		t.Errorf("timed entry = %+v %v", s, ok)
	}
}

func TestMonitorRegions(t *testing.T) {
	m, _ := newTestMonitor()
	if m.CurrentRegion() != GlobalRegion {
		t.Error("initial region not global")
	}
	m.Observe("MPI_Send", 8, time.Millisecond)
	m.EnterRegion("solver")
	m.Observe("MPI_Send", 8, time.Millisecond)
	m.EnterRegion("inner")
	if m.CurrentRegion() != "inner" {
		t.Error("nested region not active")
	}
	m.ExitRegion()
	m.ExitRegion()
	m.ExitRegion() // extra pop is a no-op
	if m.CurrentRegion() != GlobalRegion {
		t.Error("region stack did not unwind")
	}
	if m.Table().Len() != 2 {
		t.Errorf("expected 2 signatures (global + solver), got %d", m.Table().Len())
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]Domain{
		"MPI_Allreduce":     DomainMPI,
		"cudaMemcpy(D2H)":   DomainCUDA,
		"cuMemAlloc":        DomainCUDA,
		"cublasSetMatrix":   DomainCUBLAS,
		"cufftExecZ2Z":      DomainCUFFT,
		"@CUDA_EXEC_STRM00": DomainPseudo,
		"@CUDA_HOST_IDLE":   DomainPseudo,
		"fopen":             DomainOther,
	}
	for name, want := range cases {
		if got := Classify(name); got != want {
			t.Errorf("Classify(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestExecStreamName(t *testing.T) {
	if ExecStreamName(0) != "@CUDA_EXEC_STRM00" {
		t.Errorf("stream 0: %s", ExecStreamName(0))
	}
	if ExecStreamName(7) != "@CUDA_EXEC_STRM07" {
		t.Errorf("stream 7: %s", ExecStreamName(7))
	}
	if ExecStreamName(42) != "@CUDA_EXEC_STRM42" {
		t.Errorf("stream 42: %s", ExecStreamName(42))
	}
	if ExecStreamName(123) != "@CUDA_EXEC_STRM123" {
		t.Errorf("stream 123: %s", ExecStreamName(123))
	}
	if ExecStreamName(-1) != "@CUDA_EXEC_STRM00" {
		t.Errorf("negative stream: %s", ExecStreamName(-1))
	}
	if ExecKernelName(0, "square") != "@CUDA_EXEC_STRM00:square" {
		t.Errorf("kernel name: %s", ExecKernelName(0, "square"))
	}
	if !(Sig{Name: "@CUDA_HOST_IDLE"}).Pseudo() {
		t.Error("pseudo detection failed")
	}
	if (Sig{Name: "cudaMalloc"}).Pseudo() {
		t.Error("non-pseudo misdetected")
	}
}

func makeJobProfile() *JobProfile {
	var ranks []RankProfile
	for r := 0; r < 4; r++ {
		fc := &fakeClock{}
		m := NewMonitor(r, "node0", "app", fc.clock, 0)
		m.Start()
		m.Observe("MPI_Allreduce", 64, time.Duration(r+1)*100*time.Millisecond)
		m.Observe("cudaLaunch", 0, 50*time.Millisecond)
		m.ObserveN(ExecStreamName(0), 0, Stats{Count: 10, Total: 2 * time.Second, Min: time.Millisecond, Max: time.Second})
		m.Observe(HostIdleName, 0, 200*time.Millisecond)
		fc.now = 10 * time.Second
		m.Stop()
		ranks = append(ranks, Snapshot(m))
	}
	return NewJobProfile("app", 4, ranks)
}

func TestJobProfileSpreads(t *testing.T) {
	jp := makeJobProfile()
	if jp.NTasks() != 4 || jp.Wallclock() != 10*time.Second {
		t.Fatalf("ntasks/wall = %d/%v", jp.NTasks(), jp.Wallclock())
	}
	ws := jp.WallclockSpread()
	if ws.Total != 40*time.Second || ws.Avg != 10*time.Second {
		t.Errorf("wallclock spread = %+v", ws)
	}
	ms := jp.DomainSpread(DomainMPI)
	if ms.Min != 100*time.Millisecond || ms.Max != 400*time.Millisecond || ms.Total != time.Second {
		t.Errorf("MPI spread = %+v", ms)
	}
	if got := jp.CommPercent(); got < 2.4 || got > 2.6 {
		t.Errorf("comm%% = %.2f, want 2.5", got)
	}
	if got := jp.GPUPercent(); got != 20 {
		t.Errorf("gpu%% = %.2f, want 20", got)
	}
	if got := jp.HostIdlePercent(); got != 2 {
		t.Errorf("idle%% = %.2f, want 2", got)
	}
	// MPI_Allreduce imbalance: max 400ms, avg 250ms.
	if got := jp.Imbalance("MPI_Allreduce"); got < 1.59 || got > 1.61 {
		t.Errorf("imbalance = %.3f, want 1.6", got)
	}
	if jp.CallCounts(DomainMPI) != 4 {
		t.Errorf("MPI calls = %d", jp.CallCounts(DomainMPI))
	}
}

func TestFuncTotalsMergeAcrossRanks(t *testing.T) {
	jp := makeJobProfile()
	fts := jp.FuncTotals()
	if len(fts) == 0 || fts[0].Name != ExecStreamName(0) {
		t.Fatalf("top entry = %+v", fts)
	}
	for _, ft := range fts {
		if ft.Name == "MPI_Allreduce" {
			if ft.Stats.Count != 4 || ft.Stats.Total != time.Second {
				t.Errorf("allreduce total = %+v", ft.Stats)
			}
			return
		}
	}
	t.Error("MPI_Allreduce missing from totals")
}

func TestBannerCompact(t *testing.T) {
	jp := makeJobProfile()
	var sb strings.Builder
	if err := WriteBanner(&sb, jp, BannerOptions{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"##IPMv2.0", "# command   : app", "# wallclock : 10.00",
		"@CUDA_EXEC_STRM00", "[time]", "[count]", "<%wall>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("banner missing %q:\n%s", want, out)
		}
	}
}

func TestBannerFull(t *testing.T) {
	jp := makeJobProfile()
	jp.Start, jp.Stop = "Tue Sep 28 12:35:09 2010", "Tue Sep 28 12:35:55 2010"
	var sb strings.Builder
	if err := WriteBanner(&sb, jp, BannerOptions{Full: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"mpi_tasks : 4 on 4 nodes", "%comm", "wallclock", "[total]", "<avg>",
		"# MPI", "#calls",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("full banner missing %q:\n%s", want, out)
		}
	}
}

func TestBannerRowFiltering(t *testing.T) {
	jp := makeJobProfile()
	var sb strings.Builder
	if err := WriteBanner(&sb, jp, BannerOptions{MaxRows: 1}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "cudaLaunch") {
		t.Error("MaxRows=1 did not truncate")
	}
	sb.Reset()
	if err := WriteBanner(&sb, jp, BannerOptions{MinTime: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "cudaLaunch") {
		t.Error("MinTime did not filter")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	jp := makeJobProfile()
	jp.Start, jp.Stop = "t0", "t1"
	var sb strings.Builder
	if err := WriteXML(&sb, jp); err != nil {
		t.Fatal(err)
	}
	got, err := ParseXML(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != jp.Command || got.NTasks() != jp.NTasks() || got.Nodes != jp.Nodes {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.Wallclock() != jp.Wallclock() {
		t.Errorf("wallclock %v != %v", got.Wallclock(), jp.Wallclock())
	}
	// Every entry must survive with exact stats (nanosecond-rounded).
	for i, r := range jp.Ranks {
		gr := got.Ranks[i]
		if len(gr.Entries) != len(r.Entries) {
			t.Fatalf("rank %d entries %d != %d", i, len(gr.Entries), len(r.Entries))
		}
		for j, e := range r.Entries {
			ge := gr.Entries[j]
			if ge.Sig != e.Sig || ge.Stats.Count != e.Stats.Count {
				t.Errorf("rank %d entry %d: %+v != %+v", i, j, ge, e)
			}
			if d := ge.Stats.Total - e.Stats.Total; d < -time.Microsecond || d > time.Microsecond {
				t.Errorf("rank %d entry %d total drift %v", i, j, d)
			}
		}
	}
}

func TestRegionsInXML(t *testing.T) {
	fc := &fakeClock{}
	m := NewMonitor(0, "h", "cmd", fc.clock, 0)
	m.Start()
	m.Observe("MPI_Send", 8, time.Millisecond)
	m.EnterRegion("phase1")
	m.Observe("MPI_Send", 8, time.Millisecond)
	m.ExitRegion()
	fc.now = time.Second
	m.Stop()
	jp := NewJobProfile("cmd", 1, []RankProfile{Snapshot(m)})
	var sb strings.Builder
	if err := WriteXML(&sb, jp); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `name="ipm_global"`) || !strings.Contains(out, `name="phase1"`) {
		t.Errorf("regions missing:\n%s", out)
	}
	got, err := ParseXML(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var regions []string
	for _, e := range got.Ranks[0].Entries {
		regions = append(regions, e.Sig.Region)
	}
	if len(regions) != 2 {
		t.Fatalf("entries = %v", regions)
	}
}
