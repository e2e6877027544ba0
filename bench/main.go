// Command tfbench is the repository's benchmark: six fixed workloads over the
// real runtime — two single-machine training steps, two synchronous
// parameter-server rounds over TCP loopback, and one frozen model served
// over HTTP and in-process — measured end to end with tracing off, and layer
// by layer from outside with a traced pass plus direct probes of each
// layer's public functions. README.md explains every workload and metric;
// BENCHMARK.json at the root of the repository is the contract.
//
// Two ways to run it (through run.sh, which builds it first):
//
//	run.sh --workload W --seed N --seconds S --trace 0|1
//	    one workload; the last line of standard output is one JSON object
//	    with the end-to-end (trace 0) or per-layer (trace 1) metrics.
//	run.sh [-seed N] [-seconds S] [-short] [-aa] [-v]
//	    every workload, slices interleaved round-robin, then each
//	    workload's traced pass and probes; one JSON document.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print the contract's result line; empty runs all six")
		seed     = flag.Int64("seed", goldenSeed, "seed of every generated input")
		seconds  = flag.Int("seconds", 0, "measured seconds per workload (default 20 for all workloads, 15 for one, 1 with -short)")
		traceOn  = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the traced pass and probes and prints the per-layer metrics")
		short    = flag.Bool("short", false, "smoke run: one bring-up, 1 s per workload, probes once")
		aa       = flag.Bool("aa", false, "run everything twice on this build and fail if an end-to-end metric differs by more than its bound")
		verbose  = flag.Bool("v", false, "also print a readable table to standard error")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the code declares it and exit")
	)
	flag.Parse()
	if *manifest {
		fmt.Println(string(manifestJSON()))
		return
	}
	if flag.NArg() > 0 || *traceOn < 0 || *traceOn > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "tfbench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	if err := realMain(*name, *seed, *seconds, *traceOn == 1, *short, *aa, *verbose); err != nil {
		fmt.Fprintf(os.Stderr, "tfbench: %v\n", err)
		os.Exit(1)
	}
}

// checkoutRoot finds the root of the checkout from the working directory:
// run.sh starts the harness there, `go run .` starts it in bench/.
func checkoutRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir
		}
	}
	return "."
}

func realMain(name string, seed int64, seconds int, traceOn, short, aa, verbose bool) error {
	procs := min(runtime.NumCPU(), 4)
	root := checkoutRoot()
	scratch := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, procs: procs, tmp: tmp, short: short}
	outDir := filepath.Join(root, "bench", "out")

	if name != "" {
		w := findWorkload(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		if seconds == 0 {
			seconds = runSeconds
		}
		return runOne(e, w, time.Duration(seconds)*time.Second, traceOn, verbose, outDir)
	}

	if seconds == 0 {
		seconds = 20
		if short {
			seconds = 1
		}
	}
	dur := time.Duration(seconds) * time.Second
	first, err := runAll(e, dur, outDir)
	if err != nil {
		return err
	}
	if !aa {
		return report(first, verbose)
	}
	second, err := runAll(e, dur, outDir)
	if err != nil {
		return err
	}
	return reportAA(first, second)
}

// runOne is the contract's run of one workload.
func runOne(e *env, w *workload, dur time.Duration, traceOn, verbose bool, outDir string) error {
	r := &run{w: w, e: e}
	if err := r.prepare(); err != nil {
		return err
	}
	var m metrics
	if traceOn {
		untraced := time.Duration(float64(dur) * untracedShare / 2)
		for i := 0; i < 2; i++ {
			r.slice(untraced, i)
		}
		probes := time.Duration(float64(dur) * (1 - untracedShare - tracedShare))
		r.trace(time.Duration(float64(dur)*tracedShare), probes, outDir)
		r.finish()
		m = mustComplete(perLayer, r.layerMetrics())
	} else {
		for i := 0; i < sliceCount; i++ {
			r.slice(dur/sliceCount, i)
		}
		r.finish()
		m = mustComplete(endToEnd, r.endToEndMetrics())
	}
	r.complain()
	if verbose {
		r.describeSlices()
	}
	attempted, failed := r.counts()
	return printResult(resultLine{Correct: r.correct(), Attempted: attempted, Failed: failed,
		Metrics: withUnits(m, append(append([]metricDef(nil), endToEnd...), perLayer...))})
}

// mustComplete is complete with an undeclared name treated as the harness
// bug it is.
func mustComplete(defs []metricDef, m metrics) metrics {
	out, err := complete(defs, m)
	if err != nil {
		panic(err)
	}
	return out
}

// resultLine is the contract's result: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func withUnits(m metrics, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(m))
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0 // JSON has no such number; a probe that divided by zero measured nothing
			}
			out[d.Name] = metricValue{Value: v, Unit: d.Unit}
		}
	}
	return out
}

func printResult(res resultLine) error {
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// runAll runs every workload: all brought up and verified, then their
// untraced slices interleaved round-robin so that drift of the machine
// falls on all alike, then each workload's traced pass, probes and
// teardown.
func runAll(e *env, dur time.Duration, outDir string) ([]*run, error) {
	debug.FreeOSMemory() // -aa: the second pass starts as the first did, not on the first's heap
	before := settledGoroutines()
	var runs []*run
	for _, w := range workloads() {
		r := &run{w: w, e: e}
		if err := r.prepare(); err != nil {
			for _, prev := range runs {
				prev.finish()
			}
			return nil, err
		}
		runs = append(runs, r)
	}
	for i := 0; i < sliceCount; i++ {
		for _, r := range runs {
			r.slice(dur/sliceCount, i)
		}
	}
	tracedDur, probes := 3*time.Second, 5*time.Second
	if e.short {
		tracedDur, probes = 300*time.Millisecond, 0 // probes once
	}
	for _, r := range runs {
		r.trace(tracedDur, probes, outDir)
		r.finish()
		r.complain()
	}
	// With every workload alive at once, a goroutine left behind cannot be
	// pinned on one of them: each reports what the whole run left.
	leaked := max(0, settledGoroutines()-before)
	for _, r := range runs {
		r.leaked = leaked
	}
	return runs, nil
}

// workloadReport is one workload in the all-workloads JSON document.
type workloadReport struct {
	GOMAXPROCS  int                     `json:"gomaxprocs"`
	Correct     bool                    `json:"correct"`
	Attempted   int                     `json:"attempted"`
	Failed      int                     `json:"failed"`
	FailedShare float64                 `json:"failed_share"`
	Samples     int                     `json:"samples"`
	Trace       string                  `json:"trace"`
	EndToEnd    map[string]boundedValue `json:"end_to_end"`
	PerLayer    map[string]metricValue  `json:"per_layer"`
}

type boundedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func report(runs []*run, verbose bool) error {
	doc := struct {
		Seed      int64                     `json:"seed"`
		Workloads map[string]workloadReport `json:"workloads"`
	}{Seed: runs[0].e.seed, Workloads: map[string]workloadReport{}}
	allCorrect := true
	for _, r := range runs {
		e2e := mustComplete(endToEnd, r.endToEndMetrics())
		layer := mustComplete(perLayer, r.layerMetrics())
		attempted, failed := r.counts()
		wr := workloadReport{GOMAXPROCS: r.w.gomaxprocs(r.e), Correct: r.correct(), Attempted: attempted, Failed: failed,
			Samples: len(pool(r.slices).latMs), Trace: r.tracedTo,
			EndToEnd: map[string]boundedValue{}, PerLayer: withUnits(layer, perLayer)}
		if attempted > 0 {
			wr.FailedShare = float64(failed) / float64(attempted)
		}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = boundedValue{Value: e2e[d.Name], Unit: d.Unit, Bound: d.Bound}
		}
		doc.Workloads[r.w.name] = wr
		allCorrect = allCorrect && wr.Correct
	}
	if verbose {
		printTable(runs)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !allCorrect {
		return fmt.Errorf("a workload's outputs were not correct")
	}
	return nil
}

// printTable writes every metric of every workload, one row per metric, to
// standard error.
func printTable(runs []*run) {
	tw := tabwriter.NewWriter(os.Stderr, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, r := range runs {
		fmt.Fprintf(tw, "\t%s", r.w.name)
	}
	fmt.Fprintln(tw)
	values := make([]metrics, len(runs))
	for i, r := range runs {
		values[i] = r.layerMetrics()
		for k, v := range r.endToEndMetrics() {
			values[i][k] = v
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		fmt.Fprintf(tw, "%s\t%s", d.Name, d.Unit)
		for _, m := range values {
			fmt.Fprintf(tw, "\t%.5g", m[d.Name])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// reportAA prints, per workload and end-to-end metric, both runs' values
// and their relative difference, and fails when one exceeds the metric's
// bound.
func reportAA(first, second []*run) error {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\trun A\trun B\trel diff\tbound\t")
	var over []string
	for i, a := range first {
		ma, mb := a.endToEndMetrics(), second[i].endToEndMetrics()
		for _, d := range endToEnd {
			va, vb := ma[d.Name], mb[d.Name]
			diff := 0.0
			if va != 0 {
				diff = math.Abs(vb-va) / math.Abs(va)
			}
			mark := ""
			if diff > d.Bound {
				mark = "OVER"
				over = append(over, a.w.name+"/"+d.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.1f%%\t%.0f%%\t%s\n", a.w.name, d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	tw.Flush()
	sort.Strings(over)
	if len(over) > 0 {
		return fmt.Errorf("two runs of one build differ by more than the bound on %v", over)
	}
	for _, r := range append(append([]*run(nil), first...), second...) {
		if !r.correct() {
			return fmt.Errorf("%s: outputs were not correct", r.w.name)
		}
	}
	return nil
}

// runSeconds is BENCHMARK.json's run_seconds: how long the contract's runs
// measure. With set-up, verification and teardown a run takes ~18 s, and the
// driver's 136 runs plus two builds (45 s each from an empty cache) stay
// inside its 3420 s with a quarter to spare.
const runSeconds = 15

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // bounds are zero, and omitted
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifestJSON renders BENCHMARK.json from the code's own tables.
func manifestJSON() []byte {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads() {
		f.Workloads = append(f.Workloads, workloadWhy{Name: w.name, Why: whys[w.name]})
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err)
	}
	return data
}

// whys records, for BENCHMARK.json, why each workload exists.
var whys = map[string]string{
	"mlp_local":     "tf.Session.Run training step of a 128-256-256-10 MLP, batch 64: matmul-dominated, so kernel and fusion work shows and scheduling work should not",
	"while_local":   "training step through a 32-iteration tf.While of tanh(s*W), batch 16, dim 32: trivial kernels, so the frame-aware executor path and per-node scheduling show",
	"ps_dense_tcp":  "sync PS-apply round, 2 PS + 2 workers over TCP loopback, ~400 KB of parameters down and gradients up per worker: gob/wire and the dense shard apply dominate",
	"ps_sparse_tcp": "same cluster, 8192x64 embedding read by Gather with 256 Zipf ids: small sparse pushes but the whole table read each round; mirror of ps_dense_tcp",
	"serve_http":    "frozen 64-wide MLP behind tfserve defaults on a real net/http listener, nproc keep-alive connections, 75% 1-row / 25% 16-row JSON: JSON, HTTP and window wait dominate",
	"serve_burst":   "same model in-process, open-loop Poisson arrivals at 0.25/0.5/1.0 x 4000 req/s, limit 10 ms: the micro-batcher and concurrent pooled steps do the work",
}
