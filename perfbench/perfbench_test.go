package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestInputsRepeatPerSeed(t *testing.T) {
	for _, name := range []string{"small", "mid"} {
		model, err := buildModel(name)
		if err != nil {
			t.Fatal(err)
		}
		a, b := makeInputs(model, 7, 16), makeInputs(model, 7, 16)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 gave different inputs on two calls", name)
		}
		if c := makeInputs(model, 8, 16); reflect.DeepEqual(a.xs, c.xs) {
			t.Fatalf("%s: seeds 7 and 8 gave the same samples", name)
		}
	}
}

func TestBurstScheduleRepeatsPerSeed(t *testing.T) {
	const seconds = 10
	a, b := burstSchedule(3, seconds), burstSchedule(3, seconds)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 3 gave different arrival schedules on two calls")
	}
	if reflect.DeepEqual(a, burstSchedule(4, seconds)) {
		t.Fatal("seeds 3 and 4 gave the same arrival schedule")
	}
	if want := 12; len(a) != want {
		t.Fatalf("%d arrivals in %ds, want %d", len(a), seconds, want)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("arrivals are not in time order")
	}
	if a[0] < 0 || a[len(a)-1] >= seconds*time.Second {
		t.Fatalf("arrivals %v..%v fall outside the %ds window", a[0], a[len(a)-1], seconds)
	}
}

// TestShortRuns runs every workload for one second and requires every
// label to match PredictFixed and every end-to-end metric to be set.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the secure-inference protocol")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			r, err := runWorkload(workloads[name], 1, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			res := r.result(false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, r.problems)
			}
			if got := r.all["fail_frac"].Value; got != 0 {
				t.Fatalf("fail_frac = %v, want 0", got)
			}
			for _, m := range endToEnd {
				if v := res.Metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}
		})
	}
}

// TestTracedRun checks that a traced run reports every per-layer metric
// and that its exact counts pass the in-run cross-checks.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the secure-inference protocol")
	}
	r, err := runWorkload(workloads["stream"], 1, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	res := r.result(true)
	if !res.Correct {
		t.Fatalf("problems: %v", r.problems)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
	}
	exact := map[string]float64{
		"netgen.and_gates":    537955,
		"ot.ots_per_inf":      9536,
		"gc.table_mb_per_inf": 537955 * 32 / 1e6,
	}
	for name, want := range exact {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if len(r.tr.spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with what the command prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, workloadNames())
	}
	check := func(list string, got []metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", list, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), command prints %s (%s)",
					list, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	parent := Span{ID: 1, StartNs: 0, EndNs: 100}
	kids := []Span{
		{Parent: 1, StartNs: 10, EndNs: 30},
		{Parent: 1, StartNs: 20, EndNs: 40},  // overlaps the first
		{Parent: 1, StartNs: 90, EndNs: 120}, // runs past the parent
	}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("children cover %d ns of the parent, want 40", got)
	}
	tr := &tracer{spans: append([]Span{{ID: 1, Name: "p", EndNs: 100}}, kids...)}
	for i := range tr.spans[1:] {
		tr.spans[i+1].Name = "c"
	}
	if got := tr.totals()["p"].SelfS; got != 60e-9 {
		t.Fatalf("self time %v s, want 60ns", got)
	}
}
