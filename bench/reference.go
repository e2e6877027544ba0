package main

import "time"

// The machine the benchmark runs on is a small guest on a shared host, and
// its speed is not the program's to decide. A vCPU whose sibling hardware
// thread is busy with another guest runs the same instructions up to 1.85×
// slower, in spells of 0.1 s to minutes; the guest's two vCPUs may themselves
// be siblings of one core, or not, as the host places them. Two runs of one
// build differed by 20–40 % in every timed figure, whatever statistic was
// taken inside a run (README.md, "Machine speed").
//
// So the harness measures the machine while it measures the program. The
// reference is a fixed piece of work that uses nothing of the repository —
// three small float32 matrix products, then a copy of half a megabyte and a
// byte-by-byte hash of a quarter of it — run on the driver's own goroutine.
// Arithmetic alone is what a busy sibling thread slows most (1.85×), more
// than it slows a training step; three parts arithmetic to one part memory
// traffic followed the four training workloads best, to 2–6 % over regimes in
// which their unscaled times moved 18–50 % (README.md). A scaled
// workload (the four training workloads) runs on one processor, and its
// driver runs the reference between every two ops; an op's latency and CPU
// time are then multiplied by the machine's speed around that op —
// refNominalMs over what the reference took — and read as they would on a
// machine where the reference takes refNominalMs.
const (
	refDim       = 64        // the product is refDim × refDim × refDim
	refKernels   = 3         // products per run of the reference
	refCopyBytes = 512 << 10 // copied per run
	refHashBytes = 128 << 10 // of which hashed
	// refNominalMs is what one run of the reference takes on the machine the
	// benchmark was written on while its neighbours are quiet: speed 1.
	refNominalMs = 0.75
	// Each op is scaled by the median of the refWindow reference runs nearest
	// to it, half before and half after.
	refWindow = 6
)

type reference struct {
	a, b, c  []float32
	src, dst []byte
	hash     uint32
}

func newReference() *reference {
	r := &reference{a: make([]float32, refDim*refDim), b: make([]float32, refDim*refDim), c: make([]float32, refDim*refDim),
		src: make([]byte, refCopyBytes), dst: make([]byte, refCopyBytes)}
	for i := range r.a {
		r.a[i], r.b[i] = float32(i%7)-3, float32(i%5)-2
	}
	return r
}

// run does the reference work once and returns how long it took, in
// milliseconds.
func (r *reference) run() float64 {
	t0 := time.Now()
	for n := 0; n < refKernels; n++ {
		for i := 0; i < refDim; i++ {
			ci := r.c[i*refDim : (i+1)*refDim]
			clear(ci)
			for k := 0; k < refDim; k++ {
				aik, bk := r.a[i*refDim+k], r.b[k*refDim:(k+1)*refDim]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
	}
	copy(r.dst, r.src)
	for _, b := range r.dst[:refHashBytes] {
		r.hash = r.hash*31 + uint32(b)
	}
	r.src[int(r.hash)%refCopyBytes]++ // the next run copies and hashes other bytes
	return ms(time.Since(t0))
}

// runs does the reference work n times.
func (r *reference) runs(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.run()
	}
	return out
}

// speedAround returns the machine's speed around op i of a driver that ran
// the reference before its first op and after every op: gaps[i] precedes op
// i and gaps[i+1] follows it. The speed is refNominalMs over the median of
// the refWindow gaps nearest the op — one reference run is half a
// millisecond's sample, and a host stall inside it would spoil it; the
// machine's spells last 100 ms and more.
func speedAround(gaps []float64, i int) float64 {
	return refNominalMs / median(gaps[max(0, i+1-refWindow/2):min(len(gaps), i+1+refWindow/2)])
}
