package ops

import (
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/tensor"
)

func init() {
	registerSendRecvOps()
}

// RendezvousKey builds the name under which a Send/Recv pair exchanges a
// value (§3.3: "Send transmits its single input to a specified device as
// soon as the tensor is available, using a rendezvous key to name the
// value"). Keys are scoped by step so concurrent steps never collide.
func RendezvousKey(stepID int64, srcDevice, dstDevice, tensorName string) string {
	var step [20]byte
	return "step " + string(strconv.AppendInt(step[:0], stepID, 10)) + ";" + srcDevice + ";" + dstDevice + ";" + tensorName
}

func sendRecvKey(ctx *OpContext) string {
	return RendezvousKey(ctx.StepID,
		ctx.Node.AttrString("send_device", ""),
		ctx.Node.AttrString("recv_device", ""),
		ctx.Node.AttrString("tensor_name", ctx.Node.Name()))
}

func registerSendRecvOps() {
	// Send and Recv are inserted by graph partitioning (§3.3) to replace
	// edges that cross device boundaries; users never create them.
	graph.RegisterOp(&graph.OpDef{
		Type: "Send", MinInputs: 1, MaxInputs: 1, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if n.AttrString("tensor_name", "") == "" {
				return nil, fmt.Errorf("Send needs a tensor_name attribute")
			}
			return nil, nil
		},
	})
	RegisterKernel("Send", "CPU", func(ctx *OpContext) error {
		if ctx.Rendezvous == nil {
			return fmt.Errorf("Send %s executed without a rendezvous", ctx.Node.Name())
		}
		return ctx.Rendezvous.Send(sendRecvKey(ctx), ctx.Inputs[0])
	})

	graph.RegisterOp(&graph.OpDef{
		Type: "Recv", MinInputs: 0, MaxInputs: 0, Stateful: true,
		Infer: func(n *graph.Node, in []graph.IOSpec) ([]graph.IOSpec, error) {
			if n.AttrString("tensor_name", "") == "" {
				return nil, fmt.Errorf("Recv needs a tensor_name attribute")
			}
			dt := n.AttrDType("dtype", tensor.Float32)
			if shape, ok := n.AttrShape("shape_hint"); ok {
				return []graph.IOSpec{{DType: dt, Shape: shape.Clone()}}, nil
			}
			return []graph.IOSpec{unknownSpec(dt, 0)}, nil
		},
	})
	RegisterBlockingKernel("Recv", "CPU", func(ctx *OpContext) error {
		if ctx.Rendezvous == nil {
			return fmt.Errorf("Recv %s executed without a rendezvous", ctx.Node.Name())
		}
		v, err := ctx.Rendezvous.RecvInto(sendRecvKey(ctx), ctx.Alloc, ctx.Abort)
		if err != nil {
			return err
		}
		ctx.Outputs[0] = v
		return nil
	})
}
