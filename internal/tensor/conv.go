package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// ConvPadding selects how a convolution or pooling window treats borders.
type ConvPadding uint8

// Padding modes, matching the reference semantics.
const (
	PaddingValid ConvPadding = iota
	PaddingSame
)

// ParsePadding maps "VALID"/"SAME" to a ConvPadding.
func ParsePadding(s string) (ConvPadding, error) {
	switch s {
	case "VALID", "valid", "":
		return PaddingValid, nil
	case "SAME", "same":
		return PaddingSame, nil
	}
	return PaddingValid, fmt.Errorf("tensor: unknown padding %q", s)
}

func (p ConvPadding) String() string {
	if p == PaddingSame {
		return "SAME"
	}
	return "VALID"
}

// convGeometry computes the output extent and leading pad for one spatial
// dimension.
func convGeometry(in, k, stride int, pad ConvPadding) (out, padBefore int) {
	if pad == PaddingSame {
		out = (in + stride - 1) / stride
		total := (out-1)*stride + k - in
		if total < 0 {
			total = 0
		}
		return out, total / 2
	}
	return (in-k)/stride + 1, 0
}

// Conv2D computes a mini-batch 2-D convolution. Input is NHWC
// [batch,h,w,inC], filter is HWIO [kh,kw,inC,outC]; the output is NHWC.
// This is the 4-D-in/4-D-out operation the paper cites as the canonical
// tensor computation (§3.1).
func Conv2D(input, filter *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || filter.Rank() != 4 {
		return nil, fmt.Errorf("tensor: Conv2D needs NHWC input and HWIO filter, got %v and %v", input.shape, filter.shape)
	}
	if input.dtype != Float32 || filter.dtype != Float32 {
		return nil, fmt.Errorf("tensor: Conv2D implemented for float32 only")
	}
	if input.shape[3] != filter.shape[2] {
		return nil, fmt.Errorf("tensor: Conv2D channel mismatch: input %v filter %v", input.shape, filter.shape)
	}
	if strideH < 1 || strideW < 1 {
		return nil, fmt.Errorf("tensor: Conv2D strides must be >= 1")
	}
	batch, inH, inW, inC := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	kh, kw, _, outC := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	if outH < 1 || outW < 1 {
		return nil, fmt.Errorf("tensor: Conv2D output would be empty for input %v filter %v", input.shape, filter.shape)
	}
	out := New(Float32, Shape{batch, outH, outW, outC})
	src, flt, dst := input.Float32s(), filter.Float32s(), out.Float32s()

	work := func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					dbase := ((b*outH+oy)*outW + ox) * outC
					for ky := 0; ky < kh; ky++ {
						iy := oy*strideH + ky - padH
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*strideW + kx - padW
							if ix < 0 || ix >= inW {
								continue
							}
							sbase := ((b*inH+iy)*inW + ix) * inC
							fbase := (ky*kw + kx) * inC * outC
							for c := 0; c < inC; c++ {
								sv := src[sbase+c]
								if sv == 0 {
									continue
								}
								frow := flt[fbase+c*outC : fbase+(c+1)*outC]
								drow := dst[dbase : dbase+outC]
								for oc := range drow {
									drow[oc] += float32(sv * frow[oc])
								}
							}
						}
					}
				}
			}
		}
	}
	parallelBatches(batch, work)
	return out, nil
}

func parallelBatches(batch int, work func(b0, b1 int)) {
	workers := runtime.GOMAXPROCS(0)
	if batch < 2 || workers == 1 {
		work(0, batch)
		return
	}
	if workers > batch {
		workers = batch
	}
	chunk := (batch + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		b0 := w * chunk
		b1 := min(b0+chunk, batch)
		if b0 >= b1 {
			break
		}
		wg.Add(1)
		go func(b0, b1 int) {
			defer wg.Done()
			work(b0, b1)
		}(b0, b1)
	}
	wg.Wait()
}

// Conv2DBackpropInput computes the gradient of Conv2D with respect to its
// input, given the output gradient.
func Conv2DBackpropInput(inputShape Shape, filter, gradOut *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if len(inputShape) != 4 || filter.Rank() != 4 || gradOut.Rank() != 4 {
		return nil, fmt.Errorf("tensor: Conv2DBackpropInput shape error")
	}
	batch, inH, inW, inC := inputShape[0], inputShape[1], inputShape[2], inputShape[3]
	kh, kw, _, outC := filter.shape[0], filter.shape[1], filter.shape[2], filter.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	if gradOut.shape[1] != outH || gradOut.shape[2] != outW || gradOut.shape[3] != outC {
		return nil, fmt.Errorf("tensor: Conv2DBackpropInput gradient shape %v inconsistent", gradOut.shape)
	}
	out := New(Float32, inputShape)
	flt, g, dst := filter.Float32s(), gradOut.Float32s(), out.Float32s()
	work := func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					gbase := ((b*outH+oy)*outW + ox) * outC
					for ky := 0; ky < kh; ky++ {
						iy := oy*strideH + ky - padH
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*strideW + kx - padW
							if ix < 0 || ix >= inW {
								continue
							}
							dbase := ((b*inH+iy)*inW + ix) * inC
							fbase := (ky*kw + kx) * inC * outC
							for c := 0; c < inC; c++ {
								frow := flt[fbase+c*outC : fbase+(c+1)*outC]
								var acc float32
								for oc := 0; oc < outC; oc++ {
									acc += float32(g[gbase+oc] * frow[oc])
								}
								dst[dbase+c] += acc
							}
						}
					}
				}
			}
		}
	}
	parallelBatches(batch, work)
	return out, nil
}

// Conv2DBackpropFilter computes the gradient of Conv2D with respect to its
// filter, given the output gradient.
func Conv2DBackpropFilter(input *Tensor, filterShape Shape, gradOut *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || len(filterShape) != 4 || gradOut.Rank() != 4 {
		return nil, fmt.Errorf("tensor: Conv2DBackpropFilter shape error")
	}
	batch, inH, inW, inC := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	kh, kw, _, outC := filterShape[0], filterShape[1], filterShape[2], filterShape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	if gradOut.shape[1] != outH || gradOut.shape[2] != outW || gradOut.shape[3] != outC {
		return nil, fmt.Errorf("tensor: Conv2DBackpropFilter gradient shape %v inconsistent", gradOut.shape)
	}
	out := New(Float32, filterShape)
	src, g, dst := input.Float32s(), gradOut.Float32s(), out.Float32s()
	for b := 0; b < batch; b++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				gbase := ((b*outH+oy)*outW + ox) * outC
				for ky := 0; ky < kh; ky++ {
					iy := oy*strideH + ky - padH
					if iy < 0 || iy >= inH {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*strideW + kx - padW
						if ix < 0 || ix >= inW {
							continue
						}
						sbase := ((b*inH+iy)*inW + ix) * inC
						fbase := (ky*kw + kx) * inC * outC
						for c := 0; c < inC; c++ {
							sv := src[sbase+c]
							if sv == 0 {
								continue
							}
							drow := dst[fbase+c*outC : fbase+(c+1)*outC]
							for oc := 0; oc < outC; oc++ {
								drow[oc] += float32(sv * g[gbase+oc])
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// MaxPool computes max pooling over NHWC input with a [kh,kw] window.
func MaxPool(input *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || input.dtype != Float32 {
		return nil, fmt.Errorf("tensor: MaxPool needs float32 NHWC input, got %v%v", input.dtype, input.shape)
	}
	batch, inH, inW, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	out := New(Float32, Shape{batch, outH, outW, c})
	src, dst := input.Float32s(), out.Float32s()
	for b := 0; b < batch; b++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				dbase := ((b*outH+oy)*outW + ox) * c
				for ch := 0; ch < c; ch++ {
					first := true
					var best float32
					for ky := 0; ky < kh; ky++ {
						iy := oy*strideH + ky - padH
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*strideW + kx - padW
							if ix < 0 || ix >= inW {
								continue
							}
							v := src[((b*inH+iy)*inW+ix)*c+ch]
							if first || v > best {
								best = v
								first = false
							}
						}
					}
					dst[dbase+ch] = best
				}
			}
		}
	}
	return out, nil
}

// MaxPoolGrad routes the output gradient back to the argmax positions of the
// original pooling windows (first-match on ties, matching the forward scan
// order).
func MaxPoolGrad(input, gradOut *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || gradOut.Rank() != 4 {
		return nil, fmt.Errorf("tensor: MaxPoolGrad shape error")
	}
	batch, inH, inW, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	if gradOut.shape[1] != outH || gradOut.shape[2] != outW {
		return nil, fmt.Errorf("tensor: MaxPoolGrad gradient shape %v inconsistent", gradOut.shape)
	}
	out := New(Float32, input.shape)
	src, g, dst := input.Float32s(), gradOut.Float32s(), out.Float32s()
	for b := 0; b < batch; b++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				gbase := ((b*outH+oy)*outW + ox) * c
				for ch := 0; ch < c; ch++ {
					bestIdx := -1
					var best float32
					for ky := 0; ky < kh; ky++ {
						iy := oy*strideH + ky - padH
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*strideW + kx - padW
							if ix < 0 || ix >= inW {
								continue
							}
							idx := ((b*inH+iy)*inW+ix)*c + ch
							if bestIdx == -1 || src[idx] > best {
								best = src[idx]
								bestIdx = idx
							}
						}
					}
					if bestIdx >= 0 {
						dst[bestIdx] += g[gbase+ch]
					}
				}
			}
		}
	}
	return out, nil
}

// AvgPool computes average pooling over NHWC input.
func AvgPool(input *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || input.dtype != Float32 {
		return nil, fmt.Errorf("tensor: AvgPool needs float32 NHWC input")
	}
	batch, inH, inW, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	out := New(Float32, Shape{batch, outH, outW, c})
	src, dst := input.Float32s(), out.Float32s()
	for b := 0; b < batch; b++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				dbase := ((b*outH+oy)*outW + ox) * c
				for ch := 0; ch < c; ch++ {
					var sum float32
					count := 0
					for ky := 0; ky < kh; ky++ {
						iy := oy*strideH + ky - padH
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*strideW + kx - padW
							if ix < 0 || ix >= inW {
								continue
							}
							sum += src[((b*inH+iy)*inW+ix)*c+ch]
							count++
						}
					}
					if count > 0 {
						dst[dbase+ch] = sum / float32(count)
					}
				}
			}
		}
	}
	return out, nil
}
