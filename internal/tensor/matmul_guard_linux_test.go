//go:build linux

package tensor

import (
	"fmt"
	"runtime/debug"
	"sync"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n elements that begin right after one inaccessible page
// (atEnd false) or end right before one (atEnd true), so that a read or write
// one element outside the slice faults.
func guarded[T float32 | float64](t *testing.T, n int, atEnd bool) []T {
	t.Helper()
	page := syscall.Getpagesize()
	var z T
	size := n * int(unsafe.Sizeof(z))
	data := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, data+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, guard := range [][]byte{mem[:page], mem[page+data:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	off := page
	if atEnd {
		off = page + data - size
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[off])), n)
}

// testMatMulAgainstGuardPages runs the tail shapes with A, B and dst each
// flush against an inaccessible page, first at their ends and then at their
// starts: a kernel that reads a whole vector where part of a strip is left,
// or a row past the last, faults instead of passing.
func testMatMulAgainstGuardPages[T float32 | float64](t *testing.T) {
	nr := tileNR[T]()
	rng := splitmix(4)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, m := range []int{tileMR, tileMR + 1, 2*tileMR - 1, 2*tileMR + 1} {
		for _, n := range []int{4, nr - 1, nr, nr + 1, 2*nr + 3} {
			for _, k := range []int{4, 17} {
				for c := 0; c < 8; c++ {
					ta, tb, atEnd := c&1 != 0, c&2 != 0, c&4 != 0
					a, b, dst := guarded[T](t, m*k, atEnd), guarded[T](t, k*n, atEnd), guarded[T](t, m*n, atEnd)
					fill(&rng, a, false)
					fill(&rng, b, false)
					lda, ldb := k, n
					if ta {
						lda = m
					}
					if tb {
						ldb = k
					}
					want := refMatMul(a, b, m, k, n, lda, ldb, ta, tb)
					for _, kc := range kernelCases[T]() {
						what := fmt.Sprintf("%s kernel, %dx%dx%d ta=%t tb=%t guard after=%t", kc.name, m, k, n, ta, tb, atEnd)
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%s: %v", what, r)
								}
							}()
							matmul(new(sync.Pool), kc.kern, dst, a, b, m, k, n, lda, ldb, ta, tb, nil, false)
						}()
						if i := firstBitDiff(dst, want); i >= 0 {
							t.Fatalf("%s: element %d = %v, contract says %v", what, i, dst[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestMatMulAgainstGuardPages(t *testing.T) {
	t.Run("float32", func(t *testing.T) { testMatMulAgainstGuardPages[float32](t) })
	t.Run("float64", func(t *testing.T) { testMatMulAgainstGuardPages[float64](t) })
}

// TestMomentumAgainstGuardPages runs the installed float32 Momentum loop with
// out, w, accum and grad each flush against an inaccessible page, at their
// ends and then at their starts, over lengths around the eight-element step:
// a loop that reads or writes a whole vector where only a tail is left
// faults instead of passing.
func TestMomentumAgainstGuardPages(t *testing.T) {
	const lr, mu = 0.05, 0.9
	rng := splitmix(30)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, n := range []int{1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 71} {
		for _, atEnd := range []bool{false, true} {
			out, w, accum, grad := guarded[float32](t, n, atEnd), guarded[float32](t, n, atEnd), guarded[float32](t, n, atEnd), guarded[float32](t, n, atEnd)
			momentumInputs(&rng, w, accum, grad, lr, mu)
			want, wantAccum := make([]float32, n), append([]float32(nil), accum...)
			momentumLoop(want, w, wantAccum, grad, lr, mu)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("n=%d guard after=%t: %v", n, atEnd, r)
					}
				}()
				momentumF32(out, w, accum, grad, lr, mu)
			}()
			if i, j := firstBitDiff(out, want), firstBitDiff(accum, wantAccum); i >= 0 || j >= 0 {
				t.Fatalf("n=%d guard after=%t: out differs from momentumLoop at %d, accum at %d", n, atEnd, i, j)
			}
		}
	}
}

// TestTanhAgainstGuardPages runs the installed float32 tanh with dst and src
// each flush against an inaccessible page, at their ends and then at their
// starts, over lengths around the four-element step: a kernel that reads or
// writes a whole vector where only a tail is left faults instead of passing.
func TestTanhAgainstGuardPages(t *testing.T) {
	rng := splitmix(31)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, n := range []int{1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 71} {
		for _, atEnd := range []bool{false, true} {
			dst, src := guarded[float32](t, n, atEnd), guarded[float32](t, n, atEnd)
			fill(&rng, src, true)
			want := make([]float32, n)
			tanhLoop(want, src)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("n=%d guard after=%t: %v", n, atEnd, r)
					}
				}()
				tanhF32(dst, src)
			}()
			if i := firstBitDiff(dst, want); i >= 0 {
				t.Fatalf("n=%d guard after=%t: element %d = %v, tanhLoop gives %v", n, atEnd, i, dst[i], want[i])
			}
		}
	}
}
