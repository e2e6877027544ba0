// Command tfbench regenerates every table and figure of the paper's
// evaluation (§6) from the cluster simulator (internal/simcluster). Each
// experiment prints the series the paper plots next to the paper's own
// numbers so the shape comparison is immediate; EXPERIMENTS.md records a
// snapshot of this output. The real runtime is measured by bench/ (`bash
// bench/run.sh`), not here.
//
// Usage:
//
//	tfbench -exp all            # everything
//	tfbench -exp table1         # §6.1 single-machine step times
//	tfbench -exp fig6           # §6.2 null-step synchronous microbenchmark
//	tfbench -exp fig7 [-cdf]    # §6.3 Inception-v3 scaling (+step-time CDFs)
//	tfbench -exp fig8           # §6.3 backup workers
//	tfbench -exp fig9           # §6.4 language model throughput
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/simcluster"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all|table1|fig6|fig7|fig8|fig9")
	cdf := flag.Bool("cdf", false, "with -exp fig7: print step-time CDFs (figures 7b/7c)")
	steps := flag.Int("steps", 0, "override simulated steps per configuration (0 = default)")
	flag.Parse()

	run := func(name string, fn func()) {
		if *exp == "all" || *exp == name {
			fn()
		}
	}
	run("table1", table1)
	run("fig6", func() { fig6(*steps) })
	run("fig7", func() { fig7(*steps, *cdf) })
	run("fig8", func() { fig8(*steps) })
	run("fig9", func() { fig9(*steps) })
	if *exp != "all" {
		switch *exp {
		case "table1", "fig6", "fig7", "fig8", "fig9":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
	}
}

func table1() {
	fmt.Println("## Table 1 — single-machine training step times (ms), one Titan X (§6.1)")
	fmt.Println("   paper:  Caffe 324/823/1068/1935 · Neon 87/211/320/270 · Torch 81/268/529/470 · TensorFlow 81/279/540/445")
	fmt.Println(simcluster.FormatTable1())
}

func fig6(steps int) {
	if steps == 0 {
		steps = 30
	}
	fmt.Println("## Figure 6 — null-step throughput, synchronous replication, 16 PS tasks (§6.2)")
	fmt.Println("   paper anchors: scalar 1.8ms→8.8ms · dense 100MB 147ms→613ms · dense 1GB 1.01s→7.16s · sparse 5–20ms flat")
	workers := []int{1, 2, 5, 10, 25, 50, 100}
	type curve struct {
		label string
		kind  string
		bytes float64
	}
	curves := []curve{
		{"Scalar", "scalar", 0},
		{"Sparse 1GB", "sparse", 1e9},
		{"Sparse 16GB", "sparse", 16e9},
		{"Dense 100M", "dense", 100e6},
		{"Dense 1GB", "dense", 1e9},
	}
	fmt.Printf("%-12s", "curve")
	for _, w := range workers {
		fmt.Printf("%10d", w)
	}
	fmt.Println("   (median step ms; batches/s = 1000/ms)")
	for _, c := range curves {
		fmt.Printf("%-12s", c.label)
		n := steps
		if c.kind == "dense" && c.bytes >= 1e9 {
			n = steps / 3
		}
		for _, w := range workers {
			st := simcluster.SimulateCluster(simcluster.Figure6Config(w, c.kind, c.bytes), max(n, 5))
			fmt.Printf("%10.1f", st.Median()*1000)
		}
		fmt.Println()
	}
	fmt.Println()
}

func fig7(steps int, cdf bool) {
	if steps == 0 {
		steps = 15
	}
	fmt.Println("## Figure 7 — Inception-v3 scaling, 17 PS tasks (§6.3)")
	fmt.Println("   paper anchors: async throughput →2300 img/s at 200 workers with diminishing returns;")
	fmt.Println("   sync median ≈10% longer than async; sync tail degrades sharply above p90")
	fmt.Printf("%-8s %14s %14s %16s %16s\n", "workers", "async img/s", "sync img/s", "async med (s)", "sync med (s)")
	workerCounts := []int{25, 50, 100, 200}
	for _, w := range workerCounts {
		async := simcluster.SimulateCluster(simcluster.InceptionConfig(w, 0, false), steps)
		sync := simcluster.SimulateCluster(simcluster.InceptionConfig(w, 0, true), steps)
		asyncImgs := async.Throughput * 32
		syncImgs := sync.Throughput * float64(w) * 32
		fmt.Printf("%-8d %14.0f %14.0f %16.2f %16.2f\n", w, asyncImgs, syncImgs, async.Median(), sync.Median())
	}
	if cdf {
		fmt.Println("\n   Figures 7b/7c — step-time percentiles (s)")
		fmt.Printf("%-8s %-6s %8s %8s %8s %8s\n", "workers", "mode", "p10", "p50", "p90", "p99")
		for _, w := range workerCounts {
			for _, mode := range []bool{false, true} {
				st := simcluster.SimulateCluster(simcluster.InceptionConfig(w, 0, mode), steps*2)
				label := "async"
				if mode {
					label = "sync"
				}
				fmt.Printf("%-8d %-6s %8.2f %8.2f %8.2f %8.2f\n", w, label,
					st.P10(), st.Median(), st.P90(), simcluster.Percentile(st.StepTimes, 99))
			}
		}
	}
	fmt.Println()
}

func fig8(steps int) {
	if steps == 0 {
		steps = 40
	}
	fmt.Println("## Figure 8 — backup workers, 50-worker synchronous Inception-v3 (§6.3)")
	fmt.Println("   paper anchors: step time minimized at b=4 (1.93s); normalized speedup peaks at b=3 (≈9.5%)")
	fmt.Printf("%-8s %12s %20s\n", "backups", "step (s)", "normalized speedup")
	var base float64
	for b := 0; b <= 5; b++ {
		st := simcluster.SimulateCluster(simcluster.InceptionConfig(50, b, true), steps)
		med := st.Median()
		if b == 0 {
			base = med
		}
		// Paper's normalization: t(0)/t(b) × 50/(50+b).
		norm := base / med * 50 / float64(50+b)
		fmt.Printf("%-8d %12.2f %20.3f\n", b, med, norm)
	}
	fmt.Println()
}

func fig9(steps int) {
	if steps == 0 {
		steps = 8
	}
	fmt.Println("## Figure 9 — LSTM language model throughput (words/s), vocab 40k (§6.4)")
	fmt.Println("   paper anchors: sampled ≫ full (softmax cost ÷78); throughput rises with PS tasks then")
	fmt.Println("   saturates as LSTM compute dominates; 256 > 32 > 4 workers")
	psCounts := []int{1, 2, 4, 8, 16, 32}
	fmt.Printf("%-24s", "configuration")
	for _, p := range psCounts {
		fmt.Printf("%10d", p)
	}
	fmt.Println("   (PS tasks)")
	for _, workers := range []int{256, 32, 4} {
		for _, sampled := range []bool{true, false} {
			label := fmt.Sprintf("%d workers (full)", workers)
			if sampled {
				label = fmt.Sprintf("%d workers (sampled)", workers)
			}
			fmt.Printf("%-24s", label)
			for _, p := range psCounts {
				tput := simcluster.SimulateLM(simcluster.DefaultLMConfig(workers, p, sampled), steps)
				fmt.Printf("%10.0f", tput)
			}
			fmt.Println()
		}
	}
	fmt.Println()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
