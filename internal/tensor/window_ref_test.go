package tensor

import "fmt"

// The six convolution and pooling kernels as they were before they shared
// Window's walk, copied unchanged but for their names. Each writes the NHWC
// window walk out in full; TestWindowKernelsMatchReference holds the kernels
// to them bit for bit.

func refConv2D(alloc Alloc, input, filter *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
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
	out := alloc(Float32, Shape{batch, outH, outW, outC})
	src, flt, dst := input.Float32s(), filter.Float32s(), out.Float32s()
	clear(dst)

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

func refConv2DBackpropInput(alloc Alloc, inputShape Shape, filter, gradOut *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
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
	out := alloc(Float32, inputShape)
	flt, g, dst := filter.Float32s(), gradOut.Float32s(), out.Float32s()
	clear(dst)
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

func refConv2DBackpropFilter(alloc Alloc, input *Tensor, filterShape Shape, gradOut *Tensor, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
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
	out := alloc(Float32, filterShape)
	src, g, dst := input.Float32s(), gradOut.Float32s(), out.Float32s()
	clear(dst)
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

func refMaxPool(alloc Alloc, input *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || input.dtype != Float32 {
		return nil, fmt.Errorf("tensor: MaxPool needs float32 NHWC input, got %v%v", input.dtype, input.shape)
	}
	batch, inH, inW, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	out := alloc(Float32, Shape{batch, outH, outW, c})
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

func refMaxPoolGrad(alloc Alloc, input, gradOut *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || gradOut.Rank() != 4 {
		return nil, fmt.Errorf("tensor: MaxPoolGrad shape error")
	}
	batch, inH, inW, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	if gradOut.shape[1] != outH || gradOut.shape[2] != outW {
		return nil, fmt.Errorf("tensor: MaxPoolGrad gradient shape %v inconsistent", gradOut.shape)
	}
	out := alloc(Float32, input.shape)
	src, g, dst := input.Float32s(), gradOut.Float32s(), out.Float32s()
	clear(dst)
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

func refAvgPool(alloc Alloc, input *Tensor, kh, kw, strideH, strideW int, pad ConvPadding) (*Tensor, error) {
	if input.Rank() != 4 || input.dtype != Float32 {
		return nil, fmt.Errorf("tensor: AvgPool needs float32 NHWC input")
	}
	batch, inH, inW, c := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	outH, padH := convGeometry(inH, kh, strideH, pad)
	outW, padW := convGeometry(inW, kw, strideW, pad)
	out := alloc(Float32, Shape{batch, outH, outW, c})
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
						sum /= float32(count)
					}
					dst[dbase+ch] = sum
				}
			}
		}
	}
	return out, nil
}
