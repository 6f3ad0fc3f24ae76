package ipmgo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ipmgo/internal/cluster"
	"ipmgo/internal/devmodel"
	"ipmgo/internal/ipm"
	"ipmgo/internal/ipmcuda"
	"ipmgo/internal/parallel"
	"ipmgo/internal/profstore"
	"ipmgo/internal/workloads"
)

// This file is the acceptance test for the device-backend registry and
// the power model: for every registered backend, energy attribution must
// be byte-identical across ensemble worker counts and ingest orders, and
// the legacy (zero-Device) path must stay energy-free.

// runSquareOn runs the square workload on one node of the named backend
// and returns the XML profiling log.
func runSquareOn(t testing.TB, backend string, seed int64) []byte {
	t.Helper()
	dev, ok := devmodel.Lookup(backend)
	if !ok {
		t.Fatalf("backend %q not registered", backend)
	}
	cfg := cluster.Dirac(1, 1)
	cfg.Device = dev
	cfg.GPU = dev.GPU
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.Command = "./square." + backend
	cfg.NoiseSeed = seed
	cfg.NoiseAmp = 0.01
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := workloads.Square(env, workloads.DefaultSquare()); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var xml bytes.Buffer
	if err := ipm.WriteXML(&xml, res.Profile); err != nil {
		t.Fatal(err)
	}
	return xml.Bytes()
}

// TestEnergyDeterminismAcrossWorkers is the acceptance property: for
// each backend, an ensemble of runs produces byte-identical XML (joules
// included) at -j 1 and -j 4, and /agg reports the same per-job
// energy_joules for any ingest order.
func TestEnergyDeterminismAcrossWorkers(t *testing.T) {
	for _, backend := range devmodel.Names() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			const n = 4
			ensemble := func(workers int) [][]byte {
				xmls := make([][]byte, n)
				if err := parallel.RunAll(n, workers, func(i int) error {
					xmls[i] = runSquareOn(t, backend, int64(i+1))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return xmls
			}
			seq := ensemble(1)
			par := ensemble(4)
			for i := range seq {
				if !bytes.Equal(seq[i], par[i]) {
					t.Fatalf("run %d XML differs between -j 1 and -j 4", i)
				}
			}

			// The XML actually carries energy for powered backends.
			dev, _ := devmodel.Lookup(backend)
			if !dev.Power.Zero() && !bytes.Contains(seq[0], []byte("energy_total=")) {
				t.Error("powered backend wrote no energy_total attribute")
			}
			if !bytes.Contains(seq[0], []byte(`device="`+dev.GPU.Name+`"`)) {
				t.Errorf("XML does not name device %q", dev.GPU.Name)
			}

			// /agg energy is identical for forward and reverse ingest order.
			aggFor := func(order []int) []byte {
				store := profstore.New()
				for _, i := range order {
					if _, err := store.Ingest(seq[i], fmt.Sprintf("sq-%d", i), nil); err != nil {
						t.Fatal(err)
					}
				}
				b, err := json.Marshal(store.Aggregate(profstore.AggOptions{}))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			fwd := aggFor([]int{0, 1, 2, 3})
			rev := aggFor([]int{3, 2, 1, 0})
			if !bytes.Equal(fwd, rev) {
				t.Errorf("/agg differs by ingest order:\nfwd: %s\nrev: %s", fwd, rev)
			}
			var rep struct {
				EnergyJoules float64 `json:"energy_joules"`
				JobEnergy    []struct {
					EnergyJoules float64 `json:"energy_joules"`
				} `json:"job_energy"`
			}
			if err := json.Unmarshal(fwd, &rep); err != nil {
				t.Fatal(err)
			}
			if !dev.Power.Zero() {
				if rep.EnergyJoules <= 0 {
					t.Error("/agg energy_joules is zero for a powered backend")
				}
				if len(rep.JobEnergy) != n {
					t.Errorf("/agg job_energy has %d rows, want %d", len(rep.JobEnergy), n)
				}
			}
		})
	}
}

// TestEnergyLegacyConfigsStayUnpowered pins the compatibility contract:
// a Config built without a Device backend attributes no energy, names no
// device, and its banner keeps the pre-registry gpu line.
func TestEnergyLegacyConfigsStayUnpowered(t *testing.T) {
	cfg := cluster.Dirac(1, 1)
	cfg.Device = devmodel.Spec{} // ad-hoc config, as pre-registry callers built
	cfg.Monitor = true
	cfg.CUDA = ipmcuda.Options{KernelTiming: true, HostIdle: true}
	cfg.Command = "./square"
	res, err := cluster.Run(cfg, func(env *cluster.Env) {
		if err := workloads.Square(env, workloads.DefaultSquare()); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := res.Profile.TotalEnergy(); e != 0 {
		t.Errorf("legacy run attributed %d nJ", e)
	}
	if d := res.Profile.DeviceName(); d != "" {
		t.Errorf("legacy run named device %q", d)
	}
	var xml bytes.Buffer
	if err := ipm.WriteXML(&xml, res.Profile); err != nil {
		t.Fatal(err)
	}
	for _, attr := range []string{"energy_total=", "energy=", "device="} {
		if bytes.Contains(xml.Bytes(), []byte(attr)) {
			t.Errorf("legacy XML carries %s", attr)
		}
	}
	var banner strings.Builder
	if err := ipm.WriteBanner(&banner, res.Profile, ipm.BannerOptions{Full: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(banner.String(), "# gpu       : 1 devices") {
		t.Error("legacy banner lost the bare device count")
	}
	if strings.Contains(banner.String(), "# energy") {
		t.Error("legacy banner grew an energy line")
	}
}

// TestBannerNamesDeviceBackend pins satellite behaviour: runs that pick
// a backend derive the banner's gpu line and energy row from the active
// spec rather than a baked-in device string.
func TestBannerNamesDeviceBackend(t *testing.T) {
	xml := runSquareOn(t, "a100", 7)
	jp, _, err := ipm.ParseXMLTolerant(xml)
	if err != nil {
		t.Fatal(err)
	}
	var banner strings.Builder
	if err := ipm.WriteBanner(&banner, jp, ipm.BannerOptions{Full: true}); err != nil {
		t.Fatal(err)
	}
	out := banner.String()
	if !strings.Contains(out, "# gpu       : 1 x A100-SXM4-40GB") {
		t.Errorf("banner does not name the A100 backend:\n%s", out)
	}
	if !strings.Contains(out, "# energy    : ") {
		t.Errorf("banner has no energy line:\n%s", out)
	}
}
