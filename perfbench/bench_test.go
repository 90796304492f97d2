package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sort"
	"sync"
	"testing"
	"time"

	"twolm/internal/core"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func defsOf(xs []struct{ Name, Unit string }) []metricDef {
	out := make([]metricDef, len(xs))
	for i, x := range xs {
		out[i] = metricDef{x.Name, x.Unit}
	}
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if got := defsOf(bj.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, endToEnd)
	}
	if got := defsOf(bj.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, perLayer)
	}
	var names []string
	for _, w := range bj.Workload {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}

	// Every per-layer metric names the end-to-end metric it targets.
	b, err := os.ReadFile("targets.json")
	if err != nil {
		t.Fatal(err)
	}
	var tj struct {
		Targets map[string]struct {
			Moves string
			On    []string
		}
	}
	if err := json.Unmarshal(b, &tj); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{"unchanged": true, "attribution": true, "none": true}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, d := range perLayer {
		tg, ok := tj.Targets[d.Name]
		switch {
		case !ok:
			t.Errorf("targets.json has no entry for %s", d.Name)
		case !e2e[tg.Moves]:
			t.Errorf("targets.json: %s moves unknown metric %q", d.Name, tg.Moves)
		case len(tg.On) == 0:
			t.Errorf("targets.json: %s names no workload", d.Name)
		}
		for _, w := range tg.On {
			if _, ok := workloads[w]; !ok {
				t.Errorf("targets.json: %s names unknown workload %q", d.Name, w)
			}
		}
	}
	if len(tj.Targets) != len(perLayer) {
		t.Errorf("targets.json has %d entries for %d per-layer metrics", len(tj.Targets), len(perLayer))
	}
}

func TestCheckNamesRejectsMissingExtraAndWrongUnit(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	ok := &report{Metrics: []metric{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}}
	if err := checkNames(ok, defs); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]metric{
		{{Name: "a", Unit: "s"}},
		{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}, {Name: "c", Unit: "ms"}},
		{{Name: "a", Unit: "s"}, {Name: "b", Unit: "s"}},
	} {
		if err := checkNames(&report{Metrics: bad}, defs); err == nil {
			t.Errorf("checkNames accepted %v", bad)
		}
	}
}

func TestDemandOracleRejectsPerturbedCounter(t *testing.T) {
	in := newDemandInput(7, true)
	rig, err := newDemandRig(core.Mode2LM, in, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rig.pass(in, 0); err != nil {
		t.Fatal(err)
	}
	got := snapDemand(rig.sys)
	ref, err := newDemandRig(core.Mode2LM, in, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.pass(in, 0); err != nil {
		t.Fatal(err)
	}
	want := snapDemand(ref.sys)
	if err := compareSnaps(got, want); err != nil {
		t.Fatalf("fast path disagrees with the per-line reference: %v", err)
	}
	perturb := []func(s *demandSnap){
		func(s *demandSnap) { s.IMC.TagMissDirty++ },
		func(s *demandSnap) { s.CAS[len(s.CAS)-1].CASWrites++ },
		func(s *demandSnap) { s.DIMMs[0][3]++ },
	}
	for i, p := range perturb {
		bad := snapDemand(rig.sys)
		p(&bad)
		if compareSnaps(bad, want) == nil {
			t.Errorf("perturbation %d not detected", i)
		}
	}
}

func TestGridOracleRejectsFlippedByte(t *testing.T) {
	ref := &gridRun{csv: []byte("a,b\n1,2\n"), json: []byte(`[{"a":1}]`)}
	same := &gridRun{csv: append([]byte(nil), ref.csv...), json: append([]byte(nil), ref.json...)}
	if err := sameBytes(same, ref); err != nil {
		t.Fatal(err)
	}
	for _, flip := range []func(g *gridRun){
		func(g *gridRun) { g.csv[5] ^= 1 },
		func(g *gridRun) { g.json[3] ^= 1 },
	} {
		bad := &gridRun{csv: append([]byte(nil), ref.csv...), json: append([]byte(nil), ref.json...)}
		flip(bad)
		if sameBytes(bad, ref) == nil {
			t.Error("flipped byte not detected")
		}
	}
}

// fakeSimd serves the three job endpoints, returning result for every
// job.
func fakeSimd(result []byte) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j-1","status":"queued"}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"j-1","status":"done","elapsed_ms":1}`)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write(result)
	})
	return httptest.NewServer(mux)
}

func TestServiceOracleRejectsFlippedResultByte(t *testing.T) {
	doc := svcDoc{body: []byte(`{}`), csv: []byte("index,lines\n0,4096\n")}
	good := fakeSimd(doc.csv)
	defer good.Close()
	if _, err := newClient(good.URL, nil, nil).do(&doc, 0); err != nil {
		t.Fatalf("identical result rejected: %v", err)
	}
	flipped := append([]byte(nil), doc.csv...)
	flipped[len(flipped)-2] ^= 1
	bad := fakeSimd(flipped)
	defer bad.Close()
	if _, err := newClient(bad.URL, nil, nil).do(&doc, 0); err == nil {
		t.Fatal("flipped result byte not detected")
	}
}

// binDir holds binaries the tests build; TestMain removes it.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// simdBinary builds cmd/simd once for the tests that need a daemon.
var simdBinary = sync.OnceValues(func() (string, error) {
	bin := filepath.Join(binDir, "simd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/simd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%v: %s", err, out)
	}
	return bin, nil
})

// minimalRun runs a workload for the shortest length it accepts.
func minimalRun(t *testing.T, workload string, seed uint64) *report {
	t.Helper()
	cfg := runConfig{workload: workload, seed: seed, seconds: 0.3, root: ".."}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNames(rep, endToEnd); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestMinimalRunOfEveryWorkloadHasNoFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for w := range workloads {
		t.Run(w, func(t *testing.T) {
			rep := minimalRun(t, w, 1)
			if rep.Attempted == 0 || rep.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Notes)
			}
			for _, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive measurement", m.Name, m.Value)
				}
			}
		})
	}
}

func TestShortSimdProbeHasNoFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simd daemon")
	}
	bin, err := simdBinary()
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	res, err := runService(runConfig{seed: 1, seconds: 1, simd: bin}, nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted == 0 || rep.Failed != 0 {
		t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Notes)
	}
	if len(res.ref.jobs) == 0 {
		t.Errorf("no reference-rate jobs: %v", rep.Notes)
	}
}

func TestHeldOutSeedChangesInputsNotMetricNames(t *testing.T) {
	const seed, heldOut = 1, 0x5EED0FF
	for _, random := range []bool{false, true} {
		if newDemandInput(seed, random) == newDemandInput(heldOut, random) {
			t.Errorf("demand input (random=%v) ignores the seed", random)
		}
	}
	a, _ := json.Marshal(gridSpec(seed))
	b, _ := json.Marshal(gridSpec(heldOut))
	if bytes.Equal(a, b) {
		t.Error("grid document ignores the seed")
	}
	da, err := serviceDocs(seed)
	if err != nil {
		t.Fatal(err)
	}
	db, err := serviceDocs(heldOut)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(da[0].body, db[0].body) && bytes.Equal(da[1].body, db[1].body) {
		t.Error("service documents ignore the seed")
	}
	if testing.Short() {
		return
	}
	names := func(r *report) []string {
		var out []string
		for _, m := range r.Metrics {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	if x, y := names(minimalRun(t, "seq-demand", seed)), names(minimalRun(t, "seq-demand", heldOut)); !reflect.DeepEqual(x, y) {
		t.Errorf("metric names differ across seeds: %v vs %v", x, y)
	}
}

func TestCPUSharesParsesARuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	in := newDemandInput(3, true)
	rig, err := newDemandRig(core.Mode2LM, in, false)
	if err != nil {
		pprof.StopCPUProfile()
		t.Fatal(err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		rig.pass(in, 0)
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
	if shares["imc"] == 0 && shares["core"] == 0 && shares["nvram"] == 0 {
		t.Errorf("a demand profile attributed nothing to the simulator: %v", shares)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"twolm/internal/imc.(*Controller).LLCScatter": "imc",
		"twolm/internal/nvram.(*DIMM).Write":          "nvram",
		"runtime.mallocgc":                            "runtime",
		"internal/runtime/maps.(*Map).Get":            "runtime",
		"net/http.(*conn).serve":                      "other",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
