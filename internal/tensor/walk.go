package tensor

// walk visits shape in row-major order as runs of consecutive elements and
// calls f once per run: at is the run's first row-major position, n its
// length, pa and pb where each operand's first element lies, and da and db
// how far each operand moves per element of the run.
//
// Each operand lies over shape with its own stride per dimension: 0 where it
// repeats (a broadcast, the reduced axes of an accumulator), the parent's
// strides for a transpose or a slice. Dimensions join the run, innermost
// first, while every operand continues it — stride[d] == step·(run length so
// far) — so one rule merges a contiguous operand (step 1) and a repeated one
// (step 0) alike. Size-1 dimensions are skipped. A nil sb is a second copy of
// sa, for a walk with one operand.
func walk(shape, sa, sb []int, f func(at, n, pa, pb, da, db int)) {
	if sb == nil {
		sb = sa
	}
	total := 1
	for _, s := range shape {
		total *= s
	}
	if total == 0 {
		return
	}
	r, n, da, db := len(shape), 1, 0, 0
	for ; r > 0; r-- {
		d := r - 1
		if shape[d] == 1 {
			continue
		}
		if n == 1 {
			n, da, db = shape[d], sa[d], sb[d]
		} else if sa[d] == da*n && sb[d] == db*n {
			n *= shape[d]
		} else {
			break
		}
	}
	// The dimensions outside the run count as an odometer.
	var buf [8]int
	idx := buf[:]
	if r > len(buf) {
		idx = make([]int, r)
	}
	pa, pb := 0, 0
	for at := 0; at < total; at += n {
		f(at, n, pa, pb, da, db)
		for d := r - 1; d >= 0; d-- {
			pa, pb = pa+sa[d], pb+sb[d]
			if idx[d]++; idx[d] < shape[d] {
				break
			}
			pa, pb = pa-sa[d]*shape[d], pb-sb[d]*shape[d]
			idx[d] = 0
		}
	}
}

// eachRun walks the broadcast of operands shaped a and b into out, calling f
// once per run with step masks ma and mb (-1 where the operand advances with
// the run, 0 where it repeats one element): the run's elements are
// out[at+i], a[pa+i&ma] and b[pb+i&mb]. When each operand is as long as out
// or a single element the whole output is one run, and nothing is allocated.
func eachRun(out, a, b Shape, f func(at, n, pa, pb, ma, mb int)) {
	n, na, nb := out.NumElements(), a.NumElements(), b.NumElements()
	if (na == n || na == 1) && (nb == n || nb == 1) {
		f(0, n, 0, 0, stepMask(na, n), stepMask(nb, n))
		return
	}
	walk(out, broadcastStrides(a, out), broadcastStrides(b, out), func(at, n, pa, pb, da, db int) {
		f(at, n, pa, pb, -da, -db)
	})
}

// broadcastStrides is in's strides over the output shape it broadcasts to:
// 0 on the dimensions in repeats or lacks.
func broadcastStrides(in, out Shape) []int {
	s, step := make([]int, len(out)), 1
	for d := len(in) - 1; d >= 0; d-- {
		if in[d] != 1 {
			s[d+len(out)-len(in)] = step
		}
		step *= in[d]
	}
	return s
}

// stepMask is what to AND an output index with to index an operand of n
// elements: every bit when the operand is as long as the output, none when
// it is one element.
func stepMask(n, outN int) int {
	if n == outN {
		return -1
	}
	return 0
}

// keptStrides lays shape's unreduced axes out row-major by themselves and
// returns their strides over shape (0 on a reduced axis) and their count.
func keptStrides(shape Shape, reduced []bool) ([]int, int) {
	s, n := make([]int, len(shape)), 1
	for d := len(shape) - 1; d >= 0; d-- {
		if !reduced[d] {
			s[d] = n
			n *= shape[d]
		}
	}
	return s, n
}
