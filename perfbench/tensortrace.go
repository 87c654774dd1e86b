package main

import (
	"sync"
	"sync/atomic"
	"time"

	"floatfl/internal/tensor"
)

// Kernel indices of the tensor.Backend methods the timing backend counts.
const (
	kDot = iota
	kAddScaled
	kScaledDiff
	kAddWeighted
	kMatVec
	kMatVecT
	kAddOuterScaled
	kMatMulNT
	kMatMulNN
	kAddMatMulTN
	kSoftmax
	kSoftmaxXent
	numKernels
)

var kernelNames = [numKernels]string{
	kDot:            "dot",
	kAddScaled:      "add_scaled",
	kScaledDiff:     "scaled_diff",
	kAddWeighted:    "add_weighted",
	kMatVec:         "matvec",
	kMatVecT:        "matvec_t",
	kAddOuterScaled: "add_outer_scaled",
	kMatMulNT:       "matmul_nt",
	kMatMulNN:       "matmul_nn",
	kAddMatMulTN:    "add_matmul_tn",
	kSoftmax:        "softmax",
	kSoftmaxXent:    "softmax_xent",
}

// kernelStats is one kernel's counters. Kernels run on the engines'
// fan-out workers, so every field is atomic.
type kernelStats struct {
	ns, calls, flops atomic.Int64
}

// timedBackend is a tensor.Backend that delegates every kernel to inner
// and counts calls, wall time and floating-point operations per kernel.
// Its results are inner's bit for bit; Batched is forwarded so nn takes
// the same forward/backward path it takes on inner.
type timedBackend struct {
	inner tensor.Backend
	stats *[numKernels]kernelStats
}

// timedPrefix prefixes the registry name of the timing backend that wraps
// a built-in backend.
const timedPrefix = "timed-"

var (
	timedMu  sync.Mutex
	timedReg = map[string]*timedBackend{}
)

// timedBackendFor returns the timing backend wrapping the named backend,
// registering it under timedPrefix+name on first use.
func timedBackendFor(name string) (*timedBackend, error) {
	timedMu.Lock()
	defer timedMu.Unlock()
	if b, ok := timedReg[name]; ok {
		return b, nil
	}
	inner, err := tensor.Lookup(name)
	if err != nil {
		return nil, err
	}
	b := &timedBackend{inner: inner, stats: new([numKernels]kernelStats)}
	tensor.Register(b)
	timedReg[name] = b
	return b, nil
}

func (b *timedBackend) record(k int, start time.Time, flops int64) {
	s := &b.stats[k]
	s.ns.Add(int64(wallNow().Sub(start)))
	s.calls.Add(1)
	s.flops.Add(flops)
}

// Name implements tensor.Backend.
func (b *timedBackend) Name() string { return timedPrefix + b.inner.Name() }

// Batched implements tensor.Backend.
func (b *timedBackend) Batched() bool { return b.inner.Batched() }

// Dot implements tensor.Backend: 2n flops.
func (b *timedBackend) Dot(x, y tensor.Vector) float64 {
	t := wallNow()
	r := b.inner.Dot(x, y)
	b.record(kDot, t, 2*int64(len(x)))
	return r
}

// AddScaled implements tensor.Backend: 2n flops.
func (b *timedBackend) AddScaled(dst tensor.Vector, alpha float64, w tensor.Vector) {
	t := wallNow()
	b.inner.AddScaled(dst, alpha, w)
	b.record(kAddScaled, t, 2*int64(len(dst)))
}

// ScaledDiff implements tensor.Backend: 2n flops.
func (b *timedBackend) ScaledDiff(dst tensor.Vector, alpha float64, x, y tensor.Vector) {
	t := wallNow()
	b.inner.ScaledDiff(dst, alpha, x, y)
	b.record(kScaledDiff, t, 2*int64(len(dst)))
}

// AddWeighted implements tensor.Backend: 2nk flops for k vectors.
func (b *timedBackend) AddWeighted(dst tensor.Vector, weights []float64, vecs []tensor.Vector) {
	t := wallNow()
	b.inner.AddWeighted(dst, weights, vecs)
	b.record(kAddWeighted, t, 2*int64(len(dst))*int64(len(vecs)))
}

// MatVec implements tensor.Backend: 2·rows·cols flops.
func (b *timedBackend) MatVec(m *tensor.Matrix, dst, x tensor.Vector) {
	t := wallNow()
	b.inner.MatVec(m, dst, x)
	b.record(kMatVec, t, 2*int64(m.Rows)*int64(m.Cols))
}

// MatVecT implements tensor.Backend: 2·rows·cols flops.
func (b *timedBackend) MatVecT(m *tensor.Matrix, dst, x tensor.Vector) {
	t := wallNow()
	b.inner.MatVecT(m, dst, x)
	b.record(kMatVecT, t, 2*int64(m.Rows)*int64(m.Cols))
}

// AddOuterScaled implements tensor.Backend: 2·rows·cols flops.
func (b *timedBackend) AddOuterScaled(m *tensor.Matrix, alpha float64, x, y tensor.Vector) {
	t := wallNow()
	b.inner.AddOuterScaled(m, alpha, x, y)
	b.record(kAddOuterScaled, t, 2*int64(m.Rows)*int64(m.Cols))
}

// MatMulNT implements tensor.Backend: 2·M·N·K flops (a: M×K, b: N×K).
func (b *timedBackend) MatMulNT(dst, x, y *tensor.Matrix) {
	t := wallNow()
	b.inner.MatMulNT(dst, x, y)
	b.record(kMatMulNT, t, 2*int64(x.Rows)*int64(y.Rows)*int64(x.Cols))
}

// MatMulNN implements tensor.Backend: 2·M·N·K flops (a: M×K, b: K×N).
func (b *timedBackend) MatMulNN(dst, x, y *tensor.Matrix) {
	t := wallNow()
	b.inner.MatMulNN(dst, x, y)
	b.record(kMatMulNN, t, 2*int64(x.Rows)*int64(y.Cols)*int64(x.Cols))
}

// AddMatMulTN implements tensor.Backend: 2·M·N·K flops (a: K×M, b: K×N).
func (b *timedBackend) AddMatMulTN(dst, x, y *tensor.Matrix) {
	t := wallNow()
	b.inner.AddMatMulTN(dst, x, y)
	b.record(kAddMatMulTN, t, 2*int64(x.Cols)*int64(y.Cols)*int64(x.Rows))
}

// Softmax implements tensor.Backend: 3n flops (max, exp-and-sum, divide).
func (b *timedBackend) Softmax(dst, src tensor.Vector) {
	t := wallNow()
	b.inner.Softmax(dst, src)
	b.record(kSoftmax, t, 3*int64(len(src)))
}

// SoftmaxXent implements tensor.Backend: 4n flops (softmax plus the
// gradient subtraction).
func (b *timedBackend) SoftmaxXent(probs, grad, logits tensor.Vector, label int) float64 {
	t := wallNow()
	r := b.inner.SoftmaxXent(probs, grad, logits, label)
	b.record(kSoftmaxXent, t, 4*int64(len(logits)))
	return r
}

// snapshot returns per-kernel (seconds, calls) plus the totals.
func (b *timedBackend) snapshot() (secs, calls [numKernels]float64, totalSecs, gflop float64) {
	var flops int64
	for k := range b.stats {
		s := &b.stats[k]
		secs[k] = time.Duration(s.ns.Load()).Seconds()
		calls[k] = float64(s.calls.Load())
		totalSecs += secs[k]
		flops += s.flops.Load()
	}
	return secs, calls, totalSecs, float64(flops) / 1e9
}
