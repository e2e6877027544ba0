package distributed

import (
	"fmt"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// BenchmarkRPCRoundTrip is one call to a task, over a loopback Serve/Dial
// pair (TCP) and through the in-process transport (InProc), at the
// transports' two extremes: an AbortStep for a step no task runs (a step ID
// and an empty reply: the price of the layers between a typed call and the
// bytes it moves) and a RecvTensor of a 2 MB tensor (the price of moving
// bytes). Run as
//
//	go test -run '^$' -bench RPCRoundTrip -cpu 1 ./internal/distributed
//
// It uses only what Serve, Dial, NewInProcCluster and the typed methods have
// always offered, so the same file measures older commits too.
func BenchmarkRPCRoundTrip(b *testing.B) {
	cluster := NewInProcCluster(ClusterSpec{"ps": {""}})
	w := cluster.Workers["/job:ps/task:0"]
	srv, err := Serve(w, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	inproc, err := cluster.Resolver()(w.Task())
	if err != nil {
		b.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		tr   Transport
	}{{"TCP", c}, {"InProc", inproc}} {
		b.Run(tc.name+"/AbortStep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.tr.AbortStep(&AbortStepReq{StepID: -1}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/RecvTensor2MB", func(b *testing.B) {
			payload := tensor.NewRNG(1).Normal(tensor.Float32, tensor.Shape{8192, 64}, 0, 1)
			key := fmt.Sprintf("step 1;%s;/job:worker/task:0/device:CPU:0;emb", w.Device().Name())
			b.SetBytes(int64(payload.ByteSize()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.local.Send(key, ops.Value{Tensor: payload}); err != nil {
					b.Fatal(err)
				}
				if _, err := tc.tr.RecvTensor(&RecvTensorReq{Key: key}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
