package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"
)

// FusedMatMul computes act(op(a)·op(b) + bias) into a buffer from alloc:
// op(a) is [m,k], op(b) is [k,n], and the result is [m,n]. The bias row
// (rank-1, length n; nil for none) and the optional ReLU are applied to each
// strip of output columns right after its tiles are written, while it is in
// cache; with neither this is the plain product behind the MatMul op.
//
// All but the smallest products (useTiles) are computed in tileMR×tileNR
// output tiles by a micro-kernel — AVX-512 or AVX2 assembly where the CPU has
// it, Go otherwise (tileKernel) — with the rows sharded across GOMAXPROCS
// goroutines; the rest keep the direct row kernels, whose setup cost is
// lower. Every path sums each output element the same way, so the result's
// bits depend on the operands alone.
func FusedMatMul(alloc Alloc, a, b, bias *Tensor, ta, tb, relu bool) (*Tensor, error) {
	m, k, n, err := matmulDims(a, b, ta, tb)
	if err != nil {
		return nil, err
	}
	if bias != nil {
		if bias.Rank() != 1 || bias.shape[0] != n || bias.dtype != a.dtype {
			return nil, fmt.Errorf("tensor: fused MatMul bias must be %v[%d], got %v%v", a.dtype, n, bias.dtype, bias.shape)
		}
	}
	dst := alloc(a.dtype, productShape(a, b, m, n))
	if a.dtype == Float32 {
		var bv []float32
		if bias != nil {
			bv = bias.Float32s()
		}
		matmul(&scratchF32, kernelF32, dst.Float32s(), a.Float32s(), b.Float32s(), m, k, n,
			a.shape[1], b.shape[1], ta, tb, bv, relu)
		return dst, nil
	}
	var bv []float64
	if bias != nil {
		bv = bias.Float64s()
	}
	matmul(&scratchF64, kernelF64, dst.Float64s(), a.Float64s(), b.Float64s(), m, k, n,
		a.shape[1], b.shape[1], ta, tb, bv, relu)
	return dst, nil
}

// MatMul is FusedMatMul into a new tensor with no bias or ReLU. It keeps its
// signature for the benchmark module (bench/), which calls it.
func MatMul(a, b *Tensor, transposeA, transposeB bool) (*Tensor, error) {
	return FusedMatMul(New, a, b, nil, transposeA, transposeB, false)
}

// FusedMatMulBias is FusedMatMul into a new tensor; dst must be nil. It keeps
// its signature for the benchmark module (bench/), which calls it.
func FusedMatMulBias(dst, a, b, bias *Tensor, transposeA, transposeB, relu bool) (*Tensor, error) {
	return FusedMatMul(New, a, b, bias, transposeA, transposeB, relu)
}

// productShape is [m, n]: an operand's own shape when it already is that
// (shapes are never written once made), else the one last made in its slot,
// so that a product allocates no shape once warm.
func productShape(a, b *Tensor, m, n int) Shape {
	for _, s := range [2]Shape{a.shape, b.shape} {
		if s[0] == m && s[1] == n {
			return s
		}
	}
	slot := &productShapes[uint(m*31+n)%uint(len(productShapes))]
	if p := slot.Load(); p != nil && p[0] == m && p[1] == n {
		return p[:]
	}
	p := &[2]int{m, n}
	slot.Store(p)
	return p[:]
}

var productShapes [64]atomic.Pointer[[2]int]

func matmulDims(a, b *Tensor, transposeA, transposeB bool) (m, k, n int, err error) {
	if a.Rank() != 2 || b.Rank() != 2 {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul needs rank-2 inputs, got %v and %v", a.shape, b.shape)
	}
	if a.dtype != b.dtype || !a.dtype.IsFloat() {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul needs matching float dtypes, got %v and %v", a.dtype, b.dtype)
	}
	m, ka := a.shape[0], a.shape[1]
	if transposeA {
		m, ka = ka, m
	}
	kb, n := b.shape[0], b.shape[1]
	if transposeB {
		kb, n = n, kb
	}
	if ka != kb {
		return 0, 0, 0, fmt.Errorf("tensor: MatMul inner dimensions differ: %v (transpose=%t) x %v (transpose=%t)",
			a.shape, transposeA, b.shape, transposeB)
	}
	return m, ka, n, nil
}

// matmulParallelThreshold is the output-element count above which the
// kernels shard work across goroutines.
const matmulParallelThreshold = 64 * 64

// tileMR is the height of the micro-kernel's output tile; its width is
// tileNR[T]() — 64 bytes (two YMM or one ZMM), so 16 float32 or 8 float64.
const tileMR = 4

func tileNR[T float32 | float64]() int {
	var z T
	return 64 / int(unsafe.Sizeof(z))
}

// A tileKernel writes one tileMR×tileNR output tile of op(A)·op(B):
//
//	c[i*ldc+j] = Σ_p a[i*rsa+p*csa] · b[p*ldb+j]    i < tileMR, j < tileNR, p < k
//
// where every element is the sum, in order of ascending p and starting from
// +0, of separately rounded products: s = T(s + T(a·b)). No multiply-add is
// fused and no partial sums are kept, so every implementation of the contract
// — kernelGo below, the AVX2 and AVX-512 ones in matmul_amd64.s, one output
// element per vector lane — and the row kernels of the small path produce the
// same bits on every architecture, build and width (which of two NaNs'
// payloads survives is the one thing left open). A is addressed by a row and
// a column stride so that a transposed operand is read where it lies; the
// kernel touches nothing outside the tile's own elements of a, b and c.
type tileKernel[T float32 | float64] func(k int, a []T, rsa, csa int, b []T, ldb int, c []T, ldc int)

// kernelF32 and kernelF64 are the micro-kernels MatMul runs: kernelGo unless
// an init in matmul_amd64.go installed the widest assembly the CPU can run.
var (
	kernelF32 tileKernel[float32] = kernelGo[float32]
	kernelF64 tileKernel[float64] = kernelGo[float64]
)

// kernelGo is the portable tileKernel. The conversion around each product is
// what forbids a compiler from fusing it into the addition (arm64, GOAMD64=v3).
func kernelGo[T float32 | float64](k int, a []T, rsa, csa int, b []T, ldb int, c []T, ldc int) {
	nr := tileNR[T]()
	for i := 0; i < tileMR; i++ {
		crow := c[i*ldc : i*ldc+nr]
		for j := 0; j < nr; j += 4 {
			var s0, s1, s2, s3 T
			ao, bo := i*rsa, j
			for p := 0; p < k; p++ {
				av, bv := a[ao], b[bo:bo+4:bo+4]
				s0 += T(av * bv[0])
				s1 += T(av * bv[1])
				s2 += T(av * bv[2])
				s3 += T(av * bv[3])
				ao += csa
				bo += ldb
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
	}
}

// scratchF32 and scratchF64 recycle the tile path's staging memory — one
// k×tileNR strip of op(B) and one output tile — so that a step of many small
// products does not allocate (and the collector not sweep) a strip per
// product. Every element read is written first, so stale contents are
// harmless.
var scratchF32, scratchF64 sync.Pool

// getScratch takes a slice of n elements from pool, allocating when the pool
// is empty or its slice too short (the longer one replaces it on Put).
func getScratch[T float32 | float64](pool *sync.Pool, n int) *[]T {
	if p, _ := pool.Get().(*[]T); p != nil && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	s := make([]T, n)
	return &s
}

// useTiles is the one predicate that sends a product to the tile path. A
// tile is never run short, so there must be tileMR rows to fill one; then the
// tiles win as soon as a strip holds 16 multiply-adds per row, whether as one
// long column (256×64×1 runs 3.5× the row kernels' speed with fifteen lanes
// of padding) or a wide outer product. Read from timing both paths over
// m × k × n ∈ {4…256} × {1…64} × {1…64} with each assembly kernel (EXPERIMENTS,
// "useTiles, re-derived" and "read again"); BenchmarkMatMul has the workloads'.
func useTiles(m, k, n int) bool {
	return m >= tileMR && k*n >= 16
}

// shardSerial reports whether shardRange would run rangeFn on the caller's
// goroutine; hot callers test it first to skip building the closure.
func shardSerial(count, work int) bool {
	return work < matmulParallelThreshold || count == 1 || runtime.GOMAXPROCS(0) == 1
}

// shardRange fans rangeFn out over [0,count) in contiguous chunks across
// GOMAXPROCS goroutines; work is the total output-element count used to
// decide whether the dispatch is worth it. Too little work — or only one
// unit to shard — runs serially.
func shardRange(count, work int, rangeFn func(i0, i1 int)) {
	if shardSerial(count, work) {
		rangeFn(0, count)
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > count {
		workers = count
	}
	var wg sync.WaitGroup
	chunk := (count + workers - 1) / workers
	for w := 0; w < workers; w++ {
		i0 := w * chunk
		i1 := i0 + chunk
		if i1 > count {
			i1 = count
		}
		if i0 >= i1 {
			break
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			rangeFn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// matmulRows computes output rows [i0,i1) of one matmul with direct index
// arithmetic — the small-product path, also reused by BatchMatMul. dst rows
// are accumulated into and must start zeroed. Each element is summed as a
// tileKernel sums it, so a product's bits do not depend on which path ran;
// in particular a zero in A is multiplied like any other value (0·Inf and
// 0·NaN are NaN here as they are in the tiles).
func matmulRows[T float32 | float64](dst, a, b []T, i0, i1, k, n, lda, ldb int, ta, tb bool) {
	switch {
	case !ta && !tb:
		// Hot path: iterate k in the outer position so that the
		// inner loop streams both B and the output row.
		for i := i0; i < i1; i++ {
			drow := dst[i*n : i*n+n]
			for p, av := range a[i*lda : i*lda+k] {
				for j, bv := range b[p*ldb : p*ldb+n] {
					drow[j] += T(av * bv)
				}
			}
		}
	case !ta && tb:
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : i*n+n]
			for j := range drow {
				brow := b[j*ldb : j*ldb+k]
				var acc T
				for p, av := range arow {
					acc += T(av * brow[p])
				}
				drow[j] = acc
			}
		}
	default:
		for i := i0; i < i1; i++ {
			drow := dst[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := a[p*lda+i] // ta is true in both remaining cases
				if tb {
					for j := range drow {
						drow[j] += T(av * b[j*ldb+p])
					}
				} else {
					for j, bv := range b[p*ldb : p*ldb+n] {
						drow[j] += T(av * bv)
					}
				}
			}
		}
	}
}

// matmul is the kernel behind MatMul for both dtypes; kern is the
// micro-kernel the tile path runs.
func matmul[T float32 | float64](pool *sync.Pool, kern tileKernel[T], dst, a, b []T, m, k, n, lda, ldb int, ta, tb bool, bias []T, relu bool) {
	if n == 1 {
		tb, ldb = false, 1 // a column is laid out like a row: skip the transposed-B staging
	}
	if !useTiles(m, k, n) {
		clear(dst[:m*n])
		shardRange(m, m*n, func(i0, i1 int) {
			matmulRows(dst, a, b, i0, i1, k, n, lda, ldb, ta, tb)
		})
		epilogue(dst, 0, m, n, 0, n, bias, relu)
		return
	}
	rsa, csa := lda, 1
	if ta {
		rsa, csa = 1, lda
	}
	// Rows are sharded a whole tile at a time, and the last shard takes the
	// rows left over: with at least one full tile of its own it can finish
	// by recomputing its last tileMR rows. The closure is built only when
	// the rows are really sharded, so a small product allocates nothing.
	tiles := m / tileMR
	if shardSerial(tiles, m*n) {
		tileRows(pool, kern, dst, a, b, 0, m, k, n, rsa, csa, ldb, tb, bias, relu)
		return
	}
	shardRange(tiles, m*n, func(t0, t1 int) {
		i1 := t1 * tileMR
		if t1 == tiles {
			i1 = m
		}
		tileRows(pool, kern, dst, a, b, t0*tileMR, i1, k, n, rsa, csa, ldb, tb, bias, relu)
	})
}

// tileRows computes output rows [i0,i1), i1-i0 ≥ tileMR, one tileNR-wide
// strip of columns at a time: every row tile runs over the strip of op(B)
// before the next strip is touched. A row-major B is read where it lies; a
// transposed one, and the last strip when n is not a multiple of tileNR, is
// staged into a zero-padded k×tileNR copy, and then the partial strip's tiles
// are written to a temporary and only their real columns copied out. Nothing
// outside the operands' slices is read or written. Bias and ReLU are applied
// strip by strip, while the strip's outputs are in cache.
func tileRows[T float32 | float64](pool *sync.Pool, kern tileKernel[T], dst, a, b []T, i0, i1, k, n, rsa, csa, ldb int, tb bool, bias []T, relu bool) {
	nr := tileNR[T]()
	var strip, tile []T
	if tb || n%nr != 0 {
		scratch := getScratch[T](pool, k*nr+tileMR*nr)
		defer pool.Put(scratch)
		strip, tile = (*scratch)[:k*nr], (*scratch)[k*nr:]
	}
	for jc := 0; jc < n; jc += nr {
		jw := min(nr, n-jc)
		bs, ldbs := strip, nr
		if !tb && jw == nr {
			bs, ldbs = b[jc:], ldb
		} else {
			stageStrip(strip, b, k, nr, ldb, jc, jw, tb)
		}
		for i := i0; i < i1; i += tileMR {
			i = min(i, i1-tileMR) // the last tile overlaps the one before rather than run short
			if jw == nr {
				kern(k, a[i*rsa:], rsa, csa, bs, ldbs, dst[i*n+jc:], n)
				continue
			}
			kern(k, a[i*rsa:], rsa, csa, bs, ldbs, tile, nr)
			for r := 0; r < tileMR; r++ {
				copy(dst[(i+r)*n+jc:(i+r)*n+jc+jw], tile[r*nr:])
			}
		}
		epilogue(dst, i0, i1, n, jc, jw, bias, relu)
	}
}

// stageStrip sets strip[p*nr+j] = op(B)[p][jc+j] for j < jw and zero for the
// padding columns jw ≤ j < nr.
func stageStrip[T float32 | float64](strip, b []T, k, nr, ldb, jc, jw int, tb bool) {
	if jw < nr {
		clear(strip)
	}
	if !tb {
		for p := 0; p < k; p++ {
			copy(strip[p*nr:p*nr+jw], b[p*ldb+jc:])
		}
		return
	}
	row := func(j int) []T { return b[(jc+j)*ldb : (jc+j)*ldb+k] }
	j := 0
	for ; j+4 <= jw; j += 4 { // four rows of B at a time: one bounds check per four stores
		r0, r1, r2, r3 := row(j), row(j+1), row(j+2), row(j+3)
		for p, v := range r0 {
			q := strip[p*nr+j : p*nr+j+4 : p*nr+j+4]
			q[0], q[1], q[2], q[3] = v, r1[p], r2[p], r3[p]
		}
	}
	for ; j < jw; j++ {
		for p, v := range row(j) {
			strip[p*nr+j] = v
		}
	}
}

// epilogue applies bias and ReLU in place to rows [i0,i1), columns
// [jc,jc+jw) of the m×n output. ReLU is "v < 0 → 0": NaN stays NaN and -0
// stays -0.
func epilogue[T float32 | float64](dst []T, i0, i1, n, jc, jw int, bias []T, relu bool) {
	if bias == nil && !relu {
		return
	}
	for i := i0; i < i1; i++ {
		drow := dst[i*n+jc : i*n+jc+jw]
		if bias != nil {
			for j, bv := range bias[jc : jc+jw] {
				drow[j] += bv
			}
		}
		if relu {
			for j, v := range drow {
				if v < 0 {
					drow[j] = 0
				}
			}
		}
	}
}

// BatchMatMul multiplies two rank-3 tensors batch-wise: [b,m,k] x [b,k,n] →
// [b,m,n]. Batches are independent, so the work is sharded across
// goroutines at the batch level; each batch runs the serial per-matrix
// kernel, avoiding nested fan-out.
func BatchMatMul(alloc Alloc, a, b *Tensor) (*Tensor, error) {
	if a.Rank() != 3 || b.Rank() != 3 {
		return nil, fmt.Errorf("tensor: BatchMatMul needs rank-3 inputs, got %v and %v", a.shape, b.shape)
	}
	if a.shape[0] != b.shape[0] || a.shape[2] != b.shape[1] {
		return nil, fmt.Errorf("tensor: BatchMatMul shape mismatch %v x %v", a.shape, b.shape)
	}
	if a.dtype != b.dtype || !a.dtype.IsFloat() {
		return nil, fmt.Errorf("tensor: BatchMatMul needs matching float dtypes")
	}
	batch, m, k, n := a.shape[0], a.shape[1], a.shape[2], b.shape[2]
	out := alloc(a.dtype, Shape{batch, m, n})
	out.zero() // matmulRows accumulates
	batchRange := func(b0, b1 int) {
		for i := b0; i < b1; i++ {
			if a.dtype == Float32 {
				matmulRows(out.Float32s()[i*m*n:(i+1)*m*n],
					a.Float32s()[i*m*k:(i+1)*m*k],
					b.Float32s()[i*k*n:(i+1)*k*n],
					0, m, k, n, k, n, false, false)
			} else {
				matmulRows(out.Float64s()[i*m*n:(i+1)*m*n],
					a.Float64s()[i*m*k:(i+1)*m*k],
					b.Float64s()[i*k*n:(i+1)*k*n],
					0, m, k, n, k, n, false, false)
			}
		}
	}
	shardRange(batch, batch*m*n, batchRange)
	return out, nil
}
