package distributed

import (
	"fmt"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// BenchmarkRPCRoundTrip is one call over a loopback Serve/Dial pair, at the
// transport's two extremes: a Heartbeat (no payload: the price of the layers
// between a typed call and the socket) and a RecvTensor of a 2 MB tensor (the
// price of moving bytes). Run as
//
//	go test -run '^$' -bench RPCRoundTrip -cpu 1 ./internal/distributed
//
// It uses only what Serve, Dial and the typed methods have always offered, so
// the same file measures any commit since the frame codec (PR 17).
func BenchmarkRPCRoundTrip(b *testing.B) {
	w := NewWorker("ps", 0, nil)
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

	b.Run("Heartbeat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Heartbeat(&HeartbeatReq{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("RecvTensor2MB", func(b *testing.B) {
		payload := tensor.NewRNG(1).Normal(tensor.Float32, tensor.Shape{8192, 64}, 0, 1)
		key := fmt.Sprintf("step 1;%s;/job:worker/task:0/device:CPU:0;emb", w.Device().Name())
		b.SetBytes(int64(payload.ByteSize()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := w.local.Send(key, ops.Value{Tensor: payload}); err != nil {
				b.Fatal(err)
			}
			if _, err := c.RecvTensor(&RecvTensorReq{Key: key}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
