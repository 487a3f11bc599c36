// Command perfbench is the repository's serving benchmark. It runs one
// named workload against the public serving API — server and client in
// one process over loopback TCP — checks every returned label against
// nn.Network.PredictFixed, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of standard output:
//
//	{"correct": true, "attempted": 41, "failed": 0, "metrics": {"inf_per_s": {"value": 4.1, "unit": "1/s"}, ...}}
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 15 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	stream  small model, one session, closed loop filling the in-flight window with InferAsync
//	batch   mid model, one session, closed loop of fused 8-sample InferBatch calls
//	burst   small model, open-loop seeded Poisson arrivals, one dial+session+Infer+Close each
//	banked  stream's loop with a garble-ahead bank filled during set-up
//
// The traced run (--trace 1) measures the workload twice — once
// untraced, once with spans around every call into the serving API — and
// then replays each layer (netgen, gc, gc/bank, ot, transport) through
// its public functions on the workload's model. Spans are kept in memory
// and written to <out>/trace/<workload>-seed<N>.json at exit, together
// with every per-layer metric, including the ones that only apply to
// some workloads.
//
// Exit status: 0 when every label and cross-check is correct, 1 when a
// result line was printed but something was wrong, 2 when the run could
// not produce a result at all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"deepsecure"
)

// Metric is one named, unit-carrying number of a run.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the untraced run's metrics in BENCHMARK.json's
// end_to_end order.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"inf_per_s", "1/s"},
	{"infer_p50_ms", "ms"},
	{"infer_tail_ms", "ms"},
	{"comm_mb_per_inf", "MB"},
	{"cpu_ms_per_inf", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "1"},
}

// perLayer lists the traced run's metrics that every workload measures,
// in BENCHMARK.json's per_layer order. Metrics that only
// exist on some workloads (bank hits, admission, burst session latency,
// phases a workload never enters) and the deterministic cost-model
// reference go to the trace file and the printed table only.
var perLayer = []struct{ Name, Unit string }{
	{"netgen.compile_s", "s"},
	{"netgen.compile_alloc_mb", "MB"},
	{"netgen.and_gates", "count"},
	{"netgen.free_gates", "count"},
	{"circuit.levels", "count"},
	{"circuit.and_per_level", "count"},
	{"core.open_ms", "ms"},
	{"core.max_in_flight", "count"},
	{"core.overlap_frac", "1"},
	{"gc.garble_ms_per_inf", "ms"},
	{"gc.eval_ms_per_inf", "ms"},
	{"gc.garble_mgates_s", "Mgates/s"},
	{"gc.eval_mgates_s", "Mgates/s"},
	{"gc.table_mb_per_inf", "MB"},
	{"bank.fill_ms_per_exec", "ms"},
	{"bank.hit_frac", "1"},
	{"ot.base_ms", "ms"},
	{"ot.ext_kots_per_s", "kOT/s"},
	{"ot.ots_per_inf", "count"},
	{"precomp.online_ms_per_inf", "ms"},
	{"precomp.refills_per_inf", "count"},
	{"precomp.pool_use_frac", "1"},
	{"transport.mb_per_s", "MB/s"},
	{"server.queued_frac", "1"},
	{"server.shed_total", "count"},
	{"server.busy_retries", "count"},
	{"phase.table_read_ms_per_inf", "ms"},
	{"phase.ot_derand_ms_per_inf", "ms"},
	{"phase.eval_ms_per_inf", "ms"},
	{"phase.output_roundtrip_ms_per_inf", "ms"},
	{"phase.ot_refill_ms_per_inf", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "1"},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "stream|batch|burst|banked")
	seed := fs.Int64("seed", 1, "workload seed: samples and the burst arrival schedule derive from it")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	out := fs.String("out", ".bench_build", "directory for the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	printHost(*workload, *seed, *seconds, *trace)

	r, err := runWorkload(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 2
	}
	if *trace == 1 {
		path := filepath.Join(*out, "trace", fmt.Sprintf("%s-seed%d.json", w.Name, *seed))
		if err := r.writeTrace(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write trace: %v\n", err)
			return 2
		}
		fmt.Printf("# trace written to %s\n", path)
	}
	res := r.result(*trace == 1)
	for _, p := range r.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	printTable(r.all)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result selects the metrics BENCHMARK.json declares for the run's mode
// from everything measured.
func (r *runResult) result(traced bool) Result {
	list := endToEnd
	if traced {
		list = perLayer
	}
	m := make(map[string]Metric, len(list))
	for _, d := range list {
		v, ok := r.all[d.Name]
		if !ok {
			r.problems = append(r.problems, "metric "+d.Name+" was not measured")
			continue
		}
		m[d.Name] = Metric{Value: v.Value, Unit: d.Unit}
	}
	return Result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}
}

func printHost(workload string, seed int64, seconds, trace int) {
	h := hostInfo()
	fmt.Printf("# perfbench --workload %s --seed %d --seconds %d --trace %d\n", workload, seed, seconds, trace)
	fmt.Printf("# host: %s, nproc %d, GOMAXPROCS %d, %s, wide AES kernel %v\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.WideHash)
}

// Host describes the machine a run measured.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	WideHash   bool   `json:"wide_hash_available"`
}

func hostInfo() Host {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return Host{
		CPU:        cpu,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		WideHash:   deepsecure.WideHashAvailable(),
	}
}

func printTable(all map[string]Metric) {
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-36s %16.6g %s\n", n, all[n].Value, all[n].Unit)
	}
}
