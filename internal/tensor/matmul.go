package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMul computes the matrix product of two rank-2 tensors, optionally
// transposing either operand first. Shapes follow the usual contract:
// op(a) is [m,k], op(b) is [k,n], and the result is [m,n].
//
// Large products go through a packed, cache-blocked kernel: op(B) is
// repacked once per column panel into contiguous k-length columns, and the
// panel is then reused by every row of the row-sharded fan-out across
// GOMAXPROCS goroutines. Small products keep the direct row kernels, whose
// setup cost is lower.
func MatMul(a, b *Tensor, transposeA, transposeB bool) (*Tensor, error) {
	return MatMulInto(nil, a, b, transposeA, transposeB)
}

// MatMulInto is MatMul writing into dst, which must be a [m,n] tensor of
// the operands' dtype (its prior contents are ignored). A nil dst
// allocates. It returns the written tensor.
func MatMulInto(dst, a, b *Tensor, transposeA, transposeB bool) (*Tensor, error) {
	return fusedMatMul(dst, a, b, nil, transposeA, transposeB, false)
}

// FusedMatMulBias computes act(op(a)·op(b) + bias) in one kernel: the bias
// row (rank-1, length n; nil for none) and the optional ReLU are applied in
// the matmul's write-out loop, so the intermediate [m,n] products never
// round-trip through memory. This is the kernel behind the FusedMatMul op
// the fusion pass rewrites MatMul+BiasAdd(+Relu) chains onto.
func FusedMatMulBias(dst, a, b, bias *Tensor, transposeA, transposeB, relu bool) (*Tensor, error) {
	return fusedMatMul(dst, a, b, bias, transposeA, transposeB, relu)
}

// MatMulOutShape returns the [m,n] shape MatMul would produce, validating
// ranks, dtypes and the inner-dimension match.
func MatMulOutShape(a, b *Tensor, transposeA, transposeB bool) (Shape, error) {
	m, _, n, err := matmulDims(a, b, transposeA, transposeB)
	if err != nil {
		return nil, err
	}
	return Shape{m, n}, nil
}

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

func fusedMatMul(dst, a, b, bias *Tensor, ta, tb, relu bool) (*Tensor, error) {
	m, k, n, err := matmulDims(a, b, ta, tb)
	if err != nil {
		return nil, err
	}
	if bias != nil {
		if bias.Rank() != 1 || bias.shape[0] != n || bias.dtype != a.dtype {
			return nil, fmt.Errorf("tensor: fused MatMul bias must be %v[%d], got %v%v", a.dtype, n, bias.dtype, bias.shape)
		}
	}
	if dst == nil {
		dst = New(a.dtype, Shape{m, n})
	} else if dst.dtype != a.dtype || dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		return nil, fmt.Errorf("tensor: MatMul dst must be %v[%d %d], got %v%v", a.dtype, m, n, dst.dtype, dst.shape)
	}
	if a.dtype == Float32 {
		var bv []float32
		if bias != nil {
			bv = bias.Float32s()
		}
		matmulF32(dst.Float32s(), a.Float32s(), b.Float32s(), m, k, n,
			a.shape[1], b.shape[1], ta, tb, bv, relu)
		return dst, nil
	}
	var bv []float64
	if bias != nil {
		bv = bias.Float64s()
	}
	matmulF64(dst.Float64s(), a.Float64s(), b.Float64s(), m, k, n,
		a.shape[1], b.shape[1], ta, tb, bv, relu)
	return dst, nil
}

// matmulParallelThreshold is the output-element count above which the
// kernels shard work across goroutines.
const matmulParallelThreshold = 64 * 64

// Packed-path geometry: products with at least packMinRows output rows and
// packMinK inner extent repay the panel repack; packPanel output columns
// are packed per panel so the panel (packPanel·k elements) stays resident
// in cache while every row streams over it.
const (
	packMinRows = 8
	packMinK    = 16
	packPanel   = 64
)

// scratchF32 and scratchF64 recycle the packed kernels' scratch — the column
// panel and, for a transposed A, its row-contiguous copy — so that a step of
// many small products does not allocate (and the collector not sweep) a
// panel per product. Every element read is written first, so stale contents
// are harmless.
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

func usePacked(m, k, n int) bool {
	return m >= packMinRows && k >= packMinK && n >= 4
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

// matmulRowsF32 computes output rows [i0,i1) of one float32 matmul with
// direct (unpacked) index arithmetic — the small-product path, also reused
// by BatchMatMul. dst rows are accumulated into and must start zeroed.
func matmulRowsF32(dst, a, b []float32, i0, i1, k, n, lda, ldb int, ta, tb bool) {
	switch {
	case !ta && !tb:
		// Hot path: iterate k in the outer position so that the
		// inner loop streams both B and the output row.
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b[p*ldb : p*ldb+n]
				for j := 0; j < n; j++ {
					drow[j] += av * brow[j]
				}
			}
		}
	case !ta && tb:
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : i*n+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var acc float32
				for p := 0; p < k; p++ {
					acc += arow[p] * brow[p]
				}
				drow[j] = acc
			}
		}
	default:
		for i := i0; i < i1; i++ {
			drow := dst[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := a[p*lda+i] // ta is true in both remaining cases
				if av == 0 {
					continue
				}
				if tb {
					for j := 0; j < n; j++ {
						drow[j] += av * b[j*ldb+p]
					}
				} else {
					brow := b[p*ldb : p*ldb+n]
					for j := 0; j < n; j++ {
						drow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// matmulRowsF64 is the float64 twin of matmulRowsF32, with the same
// specialized inner loops.
func matmulRowsF64(dst, a, b []float64, i0, i1, k, n, lda, ldb int, ta, tb bool) {
	switch {
	case !ta && !tb:
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b[p*ldb : p*ldb+n]
				for j := 0; j < n; j++ {
					drow[j] += av * brow[j]
				}
			}
		}
	case !ta && tb:
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : i*n+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var acc float64
				for p := 0; p < k; p++ {
					acc += arow[p] * brow[p]
				}
				drow[j] = acc
			}
		}
	default:
		for i := i0; i < i1; i++ {
			drow := dst[i*n : i*n+n]
			for p := 0; p < k; p++ {
				av := a[p*lda+i]
				if av == 0 {
					continue
				}
				if tb {
					for j := 0; j < n; j++ {
						drow[j] += av * b[j*ldb+p]
					}
				} else {
					brow := b[p*ldb : p*ldb+n]
					for j := 0; j < n; j++ {
						drow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

func matmulF32(dst, a, b []float32, m, k, n, lda, ldb int, ta, tb bool, bias []float32, relu bool) {
	if usePacked(m, k, n) {
		matmulPacked(&scratchF32, packedRowsF32, dst, a, b, m, k, n, lda, ldb, ta, tb, bias, relu)
		return
	}
	clear(dst[:m*n])
	shardRange(m, m*n, func(i0, i1 int) {
		matmulRowsF32(dst, a, b, i0, i1, k, n, lda, ldb, ta, tb)
	})
	epilogueF32(dst, m, n, bias, relu)
}

func matmulF64(dst, a, b []float64, m, k, n, lda, ldb int, ta, tb bool, bias []float64, relu bool) {
	if usePacked(m, k, n) {
		matmulPacked(&scratchF64, packedRowsF64, dst, a, b, m, k, n, lda, ldb, ta, tb, bias, relu)
		return
	}
	clear(dst[:m*n])
	shardRange(m, m*n, func(i0, i1 int) {
		matmulRowsF64(dst, a, b, i0, i1, k, n, lda, ldb, ta, tb)
	})
	epilogueF64(dst, m, n, bias, relu)
}

// epilogueF32 applies bias/ReLU in place for the unpacked path (the packed
// path folds both into its write-out loop).
func epilogueF32(dst []float32, m, n int, bias []float32, relu bool) {
	if bias == nil && !relu {
		return
	}
	for i := 0; i < m; i++ {
		drow := dst[i*n : i*n+n]
		if bias != nil {
			for j := range drow {
				drow[j] += bias[j]
			}
		}
		if relu {
			for j := range drow {
				if drow[j] < 0 {
					drow[j] = 0
				}
			}
		}
	}
}

func epilogueF64(dst []float64, m, n int, bias []float64, relu bool) {
	if bias == nil && !relu {
		return
	}
	for i := 0; i < m; i++ {
		drow := dst[i*n : i*n+n]
		if bias != nil {
			for j := range drow {
				drow[j] += bias[j]
			}
		}
		if relu {
			for j := range drow {
				if drow[j] < 0 {
					drow[j] = 0
				}
			}
		}
	}
}

// matmulPacked is the cache-blocked kernel: op(A) is made row-contiguous
// once (a copy only when A is transposed), op(B) is packed one packPanel-
// wide column panel at a time, and each panel is consumed by all m rows
// before the next is packed — the panel is written once and read m times,
// which is what makes the repack pay for itself. rows is the per-dtype
// micro-kernel (packedRowsF32/F64). Both scratch buffers come from pool, and
// the closure is built only when the rows are really sharded, so a small
// product allocates nothing.
func matmulPacked[T float32 | float64](pool *sync.Pool, rows func(dst, ar, panel []T, i0, i1, k, n, ldar, jc, jw int, bias []T, relu bool),
	dst, a, b []T, m, k, n, lda, ldb int, ta, tb bool, bias []T, relu bool) {
	need := packPanel * k
	if ta {
		need += m * k
	}
	scratch := getScratch[T](pool, need)
	defer pool.Put(scratch)
	panel := (*scratch)[:packPanel*k]
	ar, ldar := rowMajor((*scratch)[packPanel*k:], a, m, k, lda, ta)
	for jc := 0; jc < n; jc += packPanel {
		jw := min(n-jc, packPanel)
		// panel[j*k+p] = op(B)[p][jc+j]
		if tb {
			for j := 0; j < jw; j++ {
				copy(panel[j*k:j*k+k], b[(jc+j)*ldb:(jc+j)*ldb+k])
			}
		} else {
			for p := 0; p < k; p++ {
				brow := b[p*ldb+jc : p*ldb+jc+jw]
				for j, v := range brow {
					panel[j*k+p] = v
				}
			}
		}
		if shardSerial(m, m*jw) {
			rows(dst, ar, panel, 0, m, k, n, ldar, jc, jw, bias, relu)
			continue
		}
		shardRange(m, m*jw, func(i0, i1 int) {
			rows(dst, ar, panel, i0, i1, k, n, ldar, jc, jw, bias, relu)
		})
	}
}

// rowMajor returns op(A) with contiguous rows and its leading dimension: a
// itself, or, when A is stored transposed, a copy made in buf.
func rowMajor[T float32 | float64](buf, a []T, m, k, lda int, ta bool) ([]T, int) {
	if !ta {
		return a, lda
	}
	for p := 0; p < k; p++ {
		for i, v := range a[p*lda : p*lda+m] {
			buf[i*k+p] = v
		}
	}
	return buf, k
}

func packedRowsF32(dst, ar, panel []float32, i0, i1, k, n, ldar, jc, jw int, bias []float32, relu bool) {
	// 1-row × 4-column register block: four independent dot-product
	// accumulators per A row, so the inner loop issues fused multiply-adds
	// with no store. (A 2-row variant was measured slower: eight
	// accumulators spill on amd64.)
	for i := i0; i < i1; i++ {
		arow := ar[i*ldar : i*ldar+k]
		drow := dst[i*n+jc : i*n+jc+jw]
		j := 0
		for ; j+3 < jw; j += 4 {
			b0 := panel[(j+0)*k : (j+0)*k+k]
			b1 := panel[(j+1)*k : (j+1)*k+k]
			b2 := panel[(j+2)*k : (j+2)*k+k]
			b3 := panel[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float32
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if bias != nil {
				s0 += bias[jc+j]
				s1 += bias[jc+j+1]
				s2 += bias[jc+j+2]
				s3 += bias[jc+j+3]
			}
			if relu {
				s0, s1, s2, s3 = reluF32(s0), reluF32(s1), reluF32(s2), reluF32(s3)
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < jw; j++ {
			bcol := panel[j*k : j*k+k]
			var s float32
			for p, av := range arow {
				s += av * bcol[p]
			}
			if bias != nil {
				s += bias[jc+j]
			}
			if relu {
				s = reluF32(s)
			}
			drow[j] = s
		}
	}
}

func reluF32(v float32) float32 {
	if v < 0 {
		return 0
	}
	return v
}

func reluF64(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

func packedRowsF64(dst, ar, panel []float64, i0, i1, k, n, ldar, jc, jw int, bias []float64, relu bool) {
	for i := i0; i < i1; i++ {
		arow := ar[i*ldar : i*ldar+k]
		drow := dst[i*n+jc : i*n+jc+jw]
		j := 0
		for ; j+3 < jw; j += 4 {
			b0 := panel[(j+0)*k : (j+0)*k+k]
			b1 := panel[(j+1)*k : (j+1)*k+k]
			b2 := panel[(j+2)*k : (j+2)*k+k]
			b3 := panel[(j+3)*k : (j+3)*k+k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			if bias != nil {
				s0 += bias[jc+j]
				s1 += bias[jc+j+1]
				s2 += bias[jc+j+2]
				s3 += bias[jc+j+3]
			}
			if relu {
				s0 = reluF64(s0)
				s1 = reluF64(s1)
				s2 = reluF64(s2)
				s3 = reluF64(s3)
			}
			drow[j] = s0
			drow[j+1] = s1
			drow[j+2] = s2
			drow[j+3] = s3
		}
		for ; j < jw; j++ {
			bcol := panel[j*k : j*k+k]
			var s float64
			for p, av := range arow {
				s += av * bcol[p]
			}
			if bias != nil {
				s += bias[jc+j]
			}
			if relu {
				s = reluF64(s)
			}
			drow[j] = s
		}
	}
}

// BatchMatMul multiplies two rank-3 tensors batch-wise: [b,m,k] x [b,k,n] →
// [b,m,n]. Batches are independent, so the work is sharded across
// goroutines at the batch level; each batch runs the serial per-matrix
// kernel, avoiding nested fan-out.
func BatchMatMul(a, b *Tensor) (*Tensor, error) {
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
	out := New(a.dtype, Shape{batch, m, n})
	batchRange := func(b0, b1 int) {
		for i := b0; i < b1; i++ {
			if a.dtype == Float32 {
				matmulRowsF32(out.Float32s()[i*m*n:(i+1)*m*n],
					a.Float32s()[i*m*k:(i+1)*m*k],
					b.Float32s()[i*k*n:(i+1)*k*n],
					0, m, k, n, k, n, false, false)
			} else {
				matmulRowsF64(out.Float64s()[i*m*n:(i+1)*m*n],
					a.Float64s()[i*m*k:(i+1)*m*k],
					b.Float64s()[i*k*n:(i+1)*k*n],
					0, m, k, n, k, n, false, false)
			}
		}
	}
	shardRange(batch, batch*m*n, batchRange)
	return out, nil
}
