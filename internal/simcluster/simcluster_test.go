package simcluster

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSimEventOrdering(t *testing.T) {
	s := NewSim(1)
	var order []int
	s.At(2, func() { order = append(order, 2) })
	s.At(1, func() { order = append(order, 1) })
	s.At(1, func() { order = append(order, 11) }) // FIFO at equal times
	s.After(3, func() { order = append(order, 3) })
	s.Run(math.Inf(1))
	want := []int{1, 11, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
	if s.Now() != 3 {
		t.Errorf("final time = %v", s.Now())
	}
}

func TestSimHorizonStopsEarly(t *testing.T) {
	s := NewSim(1)
	fired := false
	s.At(10, func() { fired = true })
	s.Run(5)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if s.Now() != 5 {
		t.Errorf("time = %v, want horizon", s.Now())
	}
}

func TestSharedLinkSingleFlowRate(t *testing.T) {
	s := NewSim(1)
	l := NewSharedLink(s, 1000, 100) // capacity 1000 B/s, flow cap 100 B/s
	var doneAt float64
	l.StartFlow(200, func() { doneAt = s.Now() })
	s.Run(math.Inf(1))
	// A lone flow is bound by the per-flow cap: 200B / 100B/s = 2s.
	if math.Abs(doneAt-2) > 0.01 {
		t.Errorf("flow finished at %v, want 2s", doneAt)
	}
}

func TestSharedLinkSaturatesAggregate(t *testing.T) {
	s := NewSim(1)
	l := NewSharedLink(s, 1000, 100)
	const flows = 50 // aggregate demand 5000 B/s >> capacity
	var last float64
	for i := 0; i < flows; i++ {
		l.StartFlow(100, func() { last = s.Now() })
	}
	s.Run(math.Inf(1))
	// 50 × 100B at 1000 B/s aggregate → 5s.
	if math.Abs(last-5) > 0.1 {
		t.Errorf("all flows finished at %v, want 5s", last)
	}
}

func TestSharedLinkConservationProperty(t *testing.T) {
	// Property: total transfer time ≥ bytes/capacity and ≥ bytes/flowCap
	// per flow; all flows complete.
	f := func(seed int64) bool {
		s := NewSim(seed)
		l := NewSharedLink(s, 1e6, 1e5)
		n := 1 + int(uint(seed)%20)
		completed := 0
		var total float64
		for i := 0; i < n; i++ {
			bytes := 1e3 + float64(uint(seed>>(i%16))%9)*1e4
			total += bytes
			l.StartFlow(bytes, func() { completed++ })
		}
		s.Run(math.Inf(1))
		if completed != n {
			return false
		}
		return s.Now() >= total/1e6-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if Percentile(xs, 50) != 3 {
		t.Errorf("p50 = %v", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("p0/p100 wrong")
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestFigure6ShapesHold(t *testing.T) {
	// The qualitative claims of §6.2 must hold in the simulator:
	// (1) dense step time grows superlinearly past PS saturation,
	// (2) sparse step time is roughly flat in model size,
	// (3) scalar steps are milliseconds even at 100 workers.
	dense1 := SimulateCluster(Figure6Config(1, "dense", 1e9), 5).Median()
	dense100 := SimulateCluster(Figure6Config(100, "dense", 1e9), 5).Median()
	if dense100 < 4*dense1 {
		t.Errorf("dense contention too weak: %v -> %v", dense1, dense100)
	}
	sparse1GB := SimulateCluster(Figure6Config(50, "sparse", 1e9), 10).Median()
	sparse16GB := SimulateCluster(Figure6Config(50, "sparse", 16e9), 10).Median()
	if math.Abs(sparse1GB-sparse16GB) > 0.2*sparse1GB {
		t.Errorf("sparse step should not vary with model size: %v vs %v", sparse1GB, sparse16GB)
	}
	scalar := SimulateCluster(Figure6Config(100, "scalar", 0), 10).Median()
	if scalar > 0.05 {
		t.Errorf("scalar null step too slow: %v", scalar)
	}
	if dense100 < sparse1GB {
		t.Error("dense must dominate sparse")
	}
}

func TestFigure7ShapesHold(t *testing.T) {
	// (1) async throughput grows sublinearly (diminishing returns),
	// (2) sync is slower than async at equal scale,
	// (3) sync p90 degrades more than the median (straggler tail).
	async25 := SimulateCluster(InceptionConfig(25, 0, false), 6)
	async200 := SimulateCluster(InceptionConfig(200, 0, false), 6)
	t25 := async25.Throughput
	t200 := async200.Throughput
	if t200 < 2*t25 {
		t.Errorf("async should still scale: %v -> %v", t25, t200)
	}
	if t200 > 7*t25 {
		t.Errorf("async scaling should show diminishing returns: %v -> %v (8x workers)", t25, t200)
	}
	sync50 := SimulateCluster(InceptionConfig(50, 0, true), 10)
	async50 := SimulateCluster(InceptionConfig(50, 0, false), 10)
	if sync50.Median() < async50.Median() {
		t.Error("sync steps must wait for stragglers")
	}
	if sync50.P90()/sync50.Median() < 1.01 {
		t.Error("sync tail should exceed the median")
	}
}

func TestFigure8BackupWorkersShape(t *testing.T) {
	// Backups must reduce the synchronous step time, with diminishing
	// returns (§6.3, Figure 8).
	b0 := SimulateCluster(InceptionConfig(50, 0, true), 20).Median()
	b2 := SimulateCluster(InceptionConfig(50, 2, true), 20).Median()
	b5 := SimulateCluster(InceptionConfig(50, 5, true), 20).Median()
	if b2 >= b0 {
		t.Errorf("2 backups should cut the step time: %v -> %v", b0, b2)
	}
	gain02 := b0 - b2
	gain25 := b2 - b5
	if gain25 > gain02 {
		t.Errorf("backup returns should diminish: %v then %v", gain02, gain25)
	}
}

func TestFigure9ShapesHold(t *testing.T) {
	// (1) sampled ≫ full at equal config, (2) full throughput scales
	// with PS tasks, (3) sampled saturates on worker LSTM compute.
	full1 := SimulateLM(DefaultLMConfig(32, 1, false), 4)
	full8 := SimulateLM(DefaultLMConfig(32, 8, false), 4)
	sampled1 := SimulateLM(DefaultLMConfig(32, 1, true), 4)
	if sampled1 < 5*full1 {
		t.Errorf("sampled softmax should dominate full: %v vs %v", sampled1, full1)
	}
	if full8 < 4*full1 {
		t.Errorf("full softmax should parallelize over PS tasks: %v -> %v", full1, full8)
	}
	sampled32 := SimulateLM(DefaultLMConfig(32, 32, true), 4)
	if sampled32 > 1.5*sampled1 {
		t.Errorf("sampled softmax should saturate on LSTM compute: %v -> %v", sampled1, sampled32)
	}
	// More workers help until the PS bound.
	w4 := SimulateLM(DefaultLMConfig(4, 8, true), 4)
	w256 := SimulateLM(DefaultLMConfig(256, 8, true), 4)
	if w256 < 5*w4 {
		t.Errorf("more workers should raise sampled throughput: %v -> %v", w4, w256)
	}
}

func TestTable1RankingsHold(t *testing.T) {
	frameworks, models, ms := Table1()
	idx := map[string]int{}
	for i, f := range frameworks {
		idx[f] = i
	}
	for j, model := range models {
		caffe := ms[idx["Caffe"]][j]
		neon := ms[idx["Neon"]][j]
		torch := ms[idx["Torch"]][j]
		tflow := ms[idx["TensorFlow"]][j]
		// §6.1: TensorFlow beats Caffe everywhere and is within ~6% of
		// Torch (same cuDNN).
		if tflow >= caffe {
			t.Errorf("%s: TensorFlow (%v) should beat Caffe (%v)", model, tflow, caffe)
		}
		if math.Abs(tflow-torch)/torch > 0.10 {
			t.Errorf("%s: TF (%v) and Torch (%v) should be within 10%%", model, tflow, torch)
		}
		// Neon wins on the three 3×3-dominated models, not AlexNet.
		if model != "AlexNet" && neon >= tflow {
			t.Errorf("%s: Neon (%v) should beat TensorFlow (%v)", model, neon, tflow)
		}
	}
	// AlexNet: Neon does not beat cuDNN meaningfully (paper: 87 vs 81).
	if ms[idx["Neon"]][0] < ms[idx["TensorFlow"]][0]*0.8 {
		t.Error("Neon should not dominate AlexNet")
	}
}

func TestStragglerTailIsHeavy(t *testing.T) {
	s := NewSim(7)
	var xs []float64
	for i := 0; i < 4000; i++ {
		xs = append(xs, s.StragglerTail(0.1, 0.02))
	}
	med := Percentile(xs, 50)
	p99 := Percentile(xs, 99)
	if med < 0.9 || med > 1.1 {
		t.Errorf("median multiplier = %v, want ≈1", med)
	}
	if p99 < 1.3 {
		t.Errorf("p99 multiplier = %v, want a heavy tail", p99)
	}
}

func TestSimulationsAreDeterministic(t *testing.T) {
	a := SimulateCluster(InceptionConfig(25, 1, true), 5)
	b := SimulateCluster(InceptionConfig(25, 1, true), 5)
	if a.Median() != b.Median() || len(a.StepTimes) != len(b.StepTimes) {
		t.Error("same seed produced different results")
	}
	if SimulateLM(DefaultLMConfig(8, 4, true), 3) != SimulateLM(DefaultLMConfig(8, 4, true), 3) {
		t.Error("LM simulation not deterministic")
	}
}

// paperTable1 is the paper's Table 1: measured step times in ms per
// framework for AlexNet, Overfeat, OxfordNet, GoogleNet.
var paperTable1 = map[string][4]float64{
	"Caffe":      {324, 823, 1068, 1935},
	"Neon":       {87, 211, 320, 270},
	"Torch":      {81, 268, 529, 470},
	"TensorFlow": {81, 279, 540, 445},
}

// calibrationError is the fit's objective: the summed squared log ratio of
// predicted to published step time over the four models.
func calibrationError(f FrameworkProfile) float64 {
	var e float64
	for i, m := range BenchmarkModels() {
		d := math.Log(StepTime(m, f) * 1000 / paperTable1[f.Name][i])
		e += d * d
	}
	return e
}

// refit is the calibration the committed profiles came from: coordinate
// descent over the per-class efficiencies and the per-layer fixed cost,
// started from f.
func refit(f FrameworkProfile) FrameworkProfile {
	best, bestErr := f, calibrationError(f)
	try := func(change func(*FrameworkProfile)) bool {
		cand := best
		cand.Eff = map[KernelClass]float64{}
		for k, v := range best.Eff {
			cand.Eff[k] = v
		}
		change(&cand)
		if e := calibrationError(cand); e < bestErr {
			best, bestErr = cand, e
			return true
		}
		return false
	}
	for iter, improved := 0, true; iter < 60 && improved; iter++ {
		improved = false
		for _, class := range []KernelClass{ConvBig, Conv3, Conv1, FC} {
			for _, scale := range []float64{0.85, 0.93, 1.08, 1.18} {
				improved = try(func(c *FrameworkProfile) {
					c.Eff[class] = math.Max(0.01, math.Min(1, c.Eff[class]*scale))
				}) || improved
			}
		}
		for _, scale := range []float64{0.9, 1.1} {
			improved = try(func(c *FrameworkProfile) { c.PerLayerFixed *= scale }) || improved
		}
	}
	return best
}

// TestTable1ProfilesAreCalibrated: refitting a committed profile against
// the paper's step times must not find a materially better one — an edit to
// the layer geometry or the cost model that leaves the profiles stale shows
// up here. The slack covers Torch, held next to TensorFlow's profile (same
// cuDNN) rather than at its own optimum. -v prints the refit, which is how
// the profiles are recalibrated.
func TestTable1ProfilesAreCalibrated(t *testing.T) {
	const slack = 0.005 // in summed squared log error: ~3.5% rms per model
	for _, f := range BenchmarkFrameworks() {
		fit := refit(f)
		committed, best := calibrationError(f), calibrationError(fit)
		t.Logf("%-10s committed err=%.4f; refit err=%.4f eff={big:%.3f c3:%.3f c1:%.3f fc:%.3f} overhead=%.0fus",
			f.Name, committed, best, fit.Eff[ConvBig], fit.Eff[Conv3], fit.Eff[Conv1], fit.Eff[FC], fit.PerLayerFixed*1e6)
		if committed > best+slack {
			t.Errorf("%s: committed profile has calibration error %.4f, a refit reaches %.4f", f.Name, committed, best)
		}
	}
}
